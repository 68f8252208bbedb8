"""Noisy data, smoothing, spectral cutoff, and the a-priori error bound.

Measured data enters the reconstruction pipeline three ways:

1. :func:`add_noise` realizes a noise hypothesis synthetically: a seeded
   perturbation calibrated so its scale norm equals the prescribed level
   exactly, which keeps test assertions sharp.
2. :func:`smooth` and :func:`choose_h` lift rough data into the smoother
   space the problem formulations need: a hard frequency cutoff at
   ``lambda <= 1/h``, with the explicit h that balances the truncation
   error of the clean datum against the amplified noise.  The resulting
   squared error in the intermediate norm is bounded by
   :func:`smoothing_bound`.
3. :func:`regularized_fixed_point` replaces the iteration multiplier by
   zero above a cutoff ``n``, which restores boundedness at the price of a
   truncation error.  :func:`error_bound_curve` evaluates the a-priori
   bound (source term M/G(n) plus amplified data error) over the candidate
   cutoffs, and :func:`select_n_star` picks the minimizer.  Both share one
   O(N log N) pass over the sorted spectrum rather than O(N) work per
   candidate; the measured error it reports comes from prefix and suffix
   sums and matches a per-candidate ``norm_s`` to 1e-13 relative.

Cutoffs only matter at eigenvalues, so candidates are placed at midpoints
between consecutive distinct eigenvalues plus one sentinel below the lowest
and one above the highest.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DegenerateComplementError
from .iterations import IterationFactors
from .spectral import SpectralVec, SpectrumModel, norm_s, scale_weights, sub

__all__ = [
    "NoiseSpec",
    "SourceCondition",
    "RegularizerPlan",
    "BoundPoint",
    "CutoffSelection",
    "add_noise",
    "smooth",
    "choose_h",
    "smoothing_bound",
    "regularized_fixed_point",
    "candidate_cutoffs",
    "error_bound_curve",
    "select_n_star",
    "power_source_function",
    "source_constant",
    "measure_eps_prime",
]


# ---------------------------------------------------------------------------
# noise


@dataclasses.dataclass(frozen=True)
class NoiseSpec:
    """Seeded synthetic noise of an exact scale-norm size.

    ``eps`` is the norm of the perturbation (not squared) measured in the
    scale norm of index ``norm_scale``.
    """

    eps: float
    seed: int
    norm_scale: float = 0.0

    def __post_init__(self):
        if not (self.eps > 0.0) or not math.isfinite(self.eps):
            raise ConfigError(f"eps must be positive and finite, got {self.eps!r}")


def add_noise(v: SpectralVec, ns: NoiseSpec) -> SpectralVec:
    """Return v plus a seeded perturbation with ``||delta||_{norm_scale} = eps``.

    Deterministic for a fixed seed; different seeds give different
    perturbations of the same exact norm.
    """
    rng = np.random.default_rng(ns.seed)
    delta = rng.standard_normal(v.model.n_modes)
    size = norm_s(SpectralVec(delta, v.model), ns.norm_scale)
    return SpectralVec(v.coeffs + (ns.eps / size) * delta, v.model)


# ---------------------------------------------------------------------------
# smoothing


def smooth(f_eps: SpectralVec, h: float) -> SpectralVec:
    """Project onto modes with ``lambda_j <= 1/h`` (coefficients above are zeroed)."""
    h = float(h)
    if not (h > 0.0):
        raise ConfigError(f"h must be positive, got {h!r}")
    keep = f_eps.model.eigenvalues <= 1.0 / h
    return SpectralVec(np.where(keep, f_eps.coeffs, 0.0), f_eps.model)


def choose_h(eps: float, r: float, f_norm_r: float) -> float:
    """The explicit smoothing width h = [(eps^{-1} ||f||_r^2)^{1/r} - 1]^{-1/2}.

    ``eps`` here is the bound on the SQUARED data error ||f - f_eps||^2,
    matching the hypothesis the bound is derived under.  Requires
    ``eps < f_norm_r^2``; at or above that there is nothing to smooth
    against and the expression loses meaning.
    """
    eps, r, f_norm_r = float(eps), float(r), float(f_norm_r)
    if not (r > 0.0):
        raise ConfigError(f"r must be positive, got {r!r}")
    if not (eps > 0.0):
        raise ConfigError(f"eps must be positive, got {eps!r}")
    if not (f_norm_r > 0.0):
        raise ConfigError(f"f_norm_r must be positive, got {f_norm_r!r}")
    bracket = (f_norm_r * f_norm_r / eps) ** (1.0 / r) - 1.0
    if bracket <= 0.0:
        raise ConfigError(
            f"eps = {eps:g} must be below f_norm_r^2 = {f_norm_r * f_norm_r:g} "
            "for the smoothing width to be defined"
        )
    return 1.0 / math.sqrt(bracket)


def smoothing_bound(eps: float, r: float, s: float, f_norm_r: float) -> float:
    """Bound 4 eps^{(r-s)/r} ||f||_r^{2s/r} on the SQUARED s-norm error.

    Valid for ``r > s > 0``: the error of replacing f by the smoothed noisy
    datum S_h f_eps, with h from :func:`choose_h`, measured in the
    intermediate norm of index s.
    """
    eps, r, s, f_norm_r = float(eps), float(r), float(s), float(f_norm_r)
    if not (r > s > 0.0):
        raise ConfigError(f"need r > s > 0, got r={r!r}, s={s!r}")
    if not (eps > 0.0) or not (f_norm_r > 0.0):
        raise ConfigError("eps and f_norm_r must be positive")
    return 4.0 * eps ** ((r - s) / r) * f_norm_r ** (2.0 * s / r)


# ---------------------------------------------------------------------------
# cutoff regularization


@dataclasses.dataclass(frozen=True)
class SourceCondition:
    """A-priori decay assumption on the sought trace.

    ``M`` is the source constant: M^2 = sum_j (1+lambda_j^2)^s G(lambda_j)^2
    phibar_j^2 for the true trace phibar.  ``G`` must be increasing and
    positive with G -> infinity; ``s`` is the norm index in which errors and
    bounds are measured (the iteration space index in practice).
    """

    M: float
    G: Callable[[float], float]
    s: float

    def __post_init__(self):
        if not (self.M >= 0.0) or not math.isfinite(self.M):
            raise ConfigError(f"M must be a non-negative finite real, got {self.M!r}")


@dataclasses.dataclass(frozen=True)
class RegularizerPlan:
    """Cutoff threshold, propagated data error, and the source condition.

    ``eps_prime`` bounds the scale-s norm of the error on the affine term z
    (measure it with :func:`measure_eps_prime` when both clean and noisy
    factors are available).
    """

    n: float
    eps_prime: float
    source: SourceCondition

    def __post_init__(self):
        if not (self.n > 0.0):
            raise ConfigError(f"cutoff n must be positive, got {self.n!r}")
        if not (self.eps_prime >= 0.0) or not math.isfinite(self.eps_prime):
            raise ConfigError(
                f"eps_prime must be a non-negative finite real, got {self.eps_prime!r}"
            )


def power_source_function(q: float) -> Callable[[float], float]:
    """The default source weight G(lambda) = (1 + lambda^2)^(q/2), q > 0."""
    q = float(q)
    if not (q > 0.0):
        raise ConfigError(f"source exponent q must be positive, got {q!r}")

    def G(lam):
        return (1.0 + lam * lam) ** (0.5 * q)

    return G


def source_constant(phibar: SpectralVec, G: Callable[[float], float], s: float) -> float:
    """Exact source constant M of a known trace under weight G and index s."""
    lam = phibar.model.eigenvalues
    g = np.asarray([float(G(x)) for x in lam])
    w = scale_weights(phibar.model, s)
    return float(np.sqrt(np.sum(w * (g * phibar.coeffs) ** 2)))


def measure_eps_prime(fac_clean: IterationFactors, fac_noisy: IterationFactors, s: float) -> float:
    """Scale-s norm of the difference of the two affine terms z."""
    if fac_clean.model != fac_noisy.model:
        raise ConfigError("factor sets live over different models")
    return norm_s(fac_clean.z - fac_noisy.z, s)


def regularized_fixed_point(fac: IterationFactors, z_eps: SpectralVec, n: float) -> SpectralVec:
    """Fixed point of the cutoff iteration: z/(1-F) on modes with
    lambda <= n, plain z above the cutoff (the multiplier is zeroed there).

    The cutoff is what removes degenerate modes; if a retained mode still
    has complement exactly zero, that is an error in the choice of n and is
    reported as such.
    """
    if z_eps.model != fac.model:
        raise ConfigError("z_eps must live over the model of the factors")
    n = float(n)
    if not (n > 0.0):
        raise ConfigError(f"cutoff n must be positive, got {n!r}")
    lam = fac.model.eigenvalues
    retained = lam <= n
    degenerate = np.flatnonzero(retained & (fac.complements == 0.0))
    if degenerate.size:
        raise DegenerateComplementError(
            f"cutoff n = {n:g} retains modes {degenerate.tolist()} whose "
            "complement 1 - F is exactly zero; lower the cutoff below them",
            mode_indices=tuple(degenerate.tolist()),
        )
    safe = np.where(retained & (fac.complements != 0.0), fac.complements, 1.0)
    c = np.where(retained, z_eps.coeffs / safe, z_eps.coeffs)
    return SpectralVec(c, fac.model)


def candidate_cutoffs(model: SpectrumModel) -> np.ndarray:
    """Cutoff thresholds that realize every distinct truncation operator.

    Midpoints between consecutive distinct eigenvalues, plus one value below
    the lowest eigenvalue (empty truncation) and one above the highest (full
    retention).  Ascending.
    """
    lam = np.unique(model.eigenvalues)
    mids = 0.5 * (lam[:-1] + lam[1:])
    return np.concatenate(([0.5 * lam[0]], mids, [1.5 * lam[-1]]))


# ---------------------------------------------------------------------------
# the a-priori bound


@dataclasses.dataclass(frozen=True)
class BoundPoint:
    """The bound's ingredients at one candidate cutoff.

    ``tail_bound`` is M/G(n) while any mode sits above the cutoff and drops
    to zero once nothing is truncated (the truncated part of the operator is
    then identically zero, whatever the trace).  ``amplification`` is the
    operator norm of (I - R_n)^{-1}: the max over retained modes of
    1/(1 - F(lambda_j)), floored at 1, and ``inf`` once a retained mode has
    complement exactly zero.  ``bound = tail_bound + eps_prime *
    amplification``, read as ``inf`` wherever the amplification is, also at
    ``eps_prime = 0``.  ``true_error`` is the measured scale-s error of the
    regularized fixed point against a supplied reference trace, when one was
    given (``inf`` if the cutoff retains a degenerate mode).
    ``lambda_retained_max`` is the largest retained eigenvalue (None when
    the cutoff drops everything).
    """

    n: float
    tail_bound: float
    amplification: float
    bound: float
    true_error: Optional[float] = None
    retained: int = 0
    lambda_retained_max: Optional[float] = None


def _bound_arrays(
    plan: RegularizerPlan,
    fac: IterationFactors,
    candidates: Optional[Sequence[float]],
    reference: Optional[SpectralVec] = None,
):
    """Grid, retained counts, tails, amplifications, bounds and (given a
    reference) measured errors of all candidates, in one pass."""
    if candidates is None:
        grid = candidate_cutoffs(fac.model)
    else:
        grid = np.sort(np.asarray(list(candidates), dtype=float))
        n_bad = np.count_nonzero(~(grid > 0.0))
        if grid.size == 0 or n_bad:
            raise ConfigError(
                f"candidate grid must be non-empty and positive; {n_bad} of "
                f"{grid.size} candidates are not positive reals"
            )
    lam, comp = fac.model.eigenvalues, fac.complements
    kept = np.searchsorted(lam, grid, side="right")  # count of lam <= n; lam is sorted
    truncating = grid[kept < lam.size].tolist()  # a prefix of the sorted grid
    Gn = np.array([float(plan.source.G(n)) for n in truncating])
    bad = np.flatnonzero(~((Gn > 0.0) & np.isfinite(Gn)))
    if bad.size:
        n = truncating[bad[0]]
        raise ConfigError(f"G({n!r}) = {float(Gn[bad[0]])!r} is not a positive finite value")
    tail = np.concatenate((plan.source.M / Gn, np.zeros(grid.size - Gn.size)))
    degenerate = comp == 0.0  # true for -0.0 as well
    with np.errstate(all="ignore"):
        amp = np.maximum(1.0, np.maximum.accumulate(np.where(degenerate, math.inf, 1.0 / comp)))
        amp = np.where(kept > 0, amp[kept - 1], 1.0)
        bound = tail + np.where(amp == math.inf, math.inf, plan.eps_prime * amp)
        if reference is None:
            return grid, kept, tail, amp, bound, None
        # squared error at count k: a prefix sum over the k retained modes
        # plus a suffix sum over the dropped ones, the latter a reversed
        # cumulative sum and not a difference of sums, so nothing cancels
        w = scale_weights(fac.model, 0.5 * plan.source.s)
        drop_sq = (w * sub(fac.z, reference).coeffs) ** 2
        ret_sq = (w * (fac.z.coeffs / np.where(degenerate, 1.0, comp) - reference.coeffs)) ** 2
        prefix = np.concatenate(([0.0], np.cumsum(ret_sq)))
        suffix = np.concatenate((np.cumsum(drop_sq[::-1])[::-1], [0.0]))
        err = np.sqrt(prefix[kept] + suffix[kept])
    first_degenerate = int(np.argmax(np.append(degenerate, True)))  # N when there is none
    return grid, kept, tail, amp, bound, np.where(kept > first_degenerate, math.inf, err)


def error_bound_curve(
    plan: RegularizerPlan,
    fac: IterationFactors,
    phibar_reference: Optional[SpectralVec] = None,
    candidates: Optional[Sequence[float]] = None,
) -> list[BoundPoint]:
    """Evaluate the a-priori bound over the candidate cutoffs.

    The factors (and the z inside them) are the noisy ones; the optional
    reference is the clean trace, against which the measured error of each
    regularized fixed point is reported in the source's scale norm.

    All C candidates share one O(N + C log N) pass (plus one call of G per
    truncating candidate): a ``searchsorted`` gives each retained count, a
    running maximum of 1/(1 - F) the amplification, and prefix and suffix
    sums the measured error.  Tail, amplification and bound are bitwise
    those of a per-candidate evaluation; ``true_error`` equals ``norm_s`` of
    the regularized fixed point minus the reference to 1e-13 relative, not
    bitwise, as the summation order differs.
    """
    grid, kept, tail, amp, bound, err = _bound_arrays(plan, fac, candidates, phibar_reference)
    errors = [None] * grid.size if err is None else err.tolist()
    lam_max = fac.model.eigenvalues[kept - 1].tolist()
    return [
        BoundPoint(n, t, a, b, e, k, lm if k else None)
        for n, t, a, b, e, k, lm in zip(
            grid.tolist(), tail.tolist(), amp.tolist(), bound.tolist(),
            errors, kept.tolist(), lam_max,
        )
    ]


@dataclasses.dataclass(frozen=True)
class CutoffSelection:
    n_star: float
    bound_at_star: float
    index: int


def select_n_star(
    plan: RegularizerPlan,
    fac: IterationFactors,
    candidates: Optional[Sequence[float]] = None,
) -> CutoffSelection:
    """Minimize the a-priori bound over the candidate cutoffs.

    Ties go to the smaller cutoff (fewer retained modes for the same
    guarantee); a NaN bound is never selected.  The bound is that of
    :func:`error_bound_curve`, so ``index`` points into that curve.
    """
    grid, _, _, _, bound, _ = _bound_arrays(plan, fac, candidates)
    i = int(np.argmin(np.where(np.isnan(bound), math.inf, bound)))
    return CutoffSelection(n_star=float(grid[i]), bound_at_star=float(bound[i]), index=i)
