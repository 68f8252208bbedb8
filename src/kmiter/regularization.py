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
   truncation error.  It is the iteration's fixed point on the retained
   modes, refusing a zero 1 - F there and a value past 1e300 alike, with no
   ``RuntimeWarning``.  :func:`error_bound_curve` evaluates the a-priori
   bound (source term M/G(n) plus amplified data error) over the candidate
   cutoffs, and :func:`select_n_star` picks the minimizer.  Both share one
   O(N + C) pass over the sorted spectrum for the C default candidates
   (O(N + C log N) for a custom grid) rather than O(N) work per candidate;
   the measured error it reports comes from prefix and suffix sums and
   matches a per-candidate ``norm_s`` to 1e-13 relative.

The source weight G is evaluated in one place, :func:`_source_weights`:
the default weight of :func:`power_source_function` as one array power, a
custom G on Python floats, on every call.

Cutoffs only matter at eigenvalues, so candidates are placed at midpoints
between consecutive distinct eigenvalues (at the lower one where the
midpoint rounds up to the upper) plus one sentinel below the lowest and one
above the highest.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .iterations import IterationFactors, _fixed_point, _safe_complement
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
    scale norm of index ``norm_scale``; ``seed`` is a non-negative integer.
    """

    eps: float
    seed: int
    norm_scale: float = 0.0

    def __post_init__(self):
        if not (self.eps > 0.0) or not math.isfinite(self.eps):
            raise ConfigError(f"eps must be positive and finite, got {self.eps!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")


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
    positive with G -> infinity, a function of lambda alone; ``s`` is the
    norm index in which errors and bounds are measured (the iteration space
    index in practice).
    """

    M: float
    G: Callable[[float], float]
    s: float

    def __post_init__(self):
        if not (self.M >= 0.0) or not math.isfinite(self.M):
            raise ConfigError(f"M must be a non-negative finite real, got {self.M!r}")


@dataclasses.dataclass(frozen=True)
class RegularizerPlan:
    """Propagated data error and the source condition, plus a cutoff ``n``.

    ``eps_prime`` bounds the scale-s norm of the error on the affine term z
    (measure it with :func:`measure_eps_prime` when both clean and noisy
    factors are available).  ``n`` must be positive, but nothing reads it:
    the curve and the selection take their cutoffs from the candidate grid,
    and :func:`regularized_fixed_point` takes its own.
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
    return _PowerWeight(0.5 * q)


@dataclasses.dataclass(frozen=True)
class _PowerWeight:
    """(1 + lam^2)^e by one numpy power, on a float or on an array alike,
    so G(x) is bitwise the array weight at x.  A float gives a float; a
    weight past the float max raises ``OverflowError``, as Python's ``**``
    does on overflow."""

    e: float

    def __call__(self, lam):
        with np.errstate(over="ignore"):
            g = np.power(1.0 + lam * lam, self.e)
        if not np.isfinite(g).all():
            raise OverflowError("(1 + lam^2)^e overflows a float")
        return float(g) if np.ndim(g) == 0 else g


def _source_weights(G: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """G at each value of the float array ``xs``: one array call for the
    default weight, which is at least 1 where finite, and a call on each
    Python float for any other G.

    A value of G that is not a positive finite real, or an ``OverflowError``
    inside G, is refused with a :class:`ConfigError` naming the first such
    argument.  Nothing is kept between calls.
    """
    try:
        if isinstance(G, _PowerWeight):
            return G(xs)
        g = np.fromiter(map(G, xs.tolist()), float, xs.size)
    except OverflowError:
        for x in xs.tolist():
            try:
                G(x)
            except OverflowError:
                raise ConfigError(f"G({x!r}) overflows a float") from None
        raise
    bad = np.flatnonzero(~((g > 0.0) & np.isfinite(g)))
    if bad.size:
        raise ConfigError(
            f"G({float(xs[bad[0]])!r}) = {float(g[bad[0]])!r} is not a positive finite value"
        )
    return g


def source_constant(phibar: SpectralVec, G: Callable[[float], float], s: float) -> float:
    """Exact source constant M of a known trace under weight G and index s,
    G evaluated at the eigenvalues by :func:`_source_weights`."""
    g = _source_weights(G, phibar.model.eigenvalues)
    w = scale_weights(phibar.model, s)
    # a G phibar past the float max makes M inf or NaN, which SourceCondition refuses
    with np.errstate(over="ignore", invalid="ignore"):
        v = g * phibar.coeffs
        # the square overflows from |v| ~ 1.3e154 on; a power-of-two scale is exact
        e = int(np.frexp(np.max(np.abs(v)))[1])
        return float(np.ldexp(np.sqrt(np.sum(w * np.ldexp(v, -e) ** 2)), e))


def measure_eps_prime(fac_clean: IterationFactors, fac_noisy: IterationFactors, s: float) -> float:
    """Scale-s norm of the difference of the two affine terms z."""
    if fac_clean.model != fac_noisy.model:
        raise ConfigError("factor sets live over different models")
    return norm_s(fac_clean.z - fac_noisy.z, s)


def regularized_fixed_point(fac: IterationFactors, z_eps: SpectralVec, n: float) -> SpectralVec:
    """Fixed point of the cutoff iteration: z/(1-F) on modes with
    lambda <= n, plain z above the cutoff (the multiplier is zeroed there),
    refused where :func:`~kmiter.iterations.fixed_point` refuses."""
    if z_eps.model != fac.model:
        raise ConfigError("z_eps must live over the model of the factors")
    n = float(n)
    if not (n > 0.0):
        raise ConfigError(f"cutoff n must be positive, got {n!r}")
    return _fixed_point(fac, z_eps.coeffs, fac.model.eigenvalues <= n)


def candidate_cutoffs(model: SpectrumModel) -> np.ndarray:
    """Cutoff thresholds that realize every distinct truncation operator.

    Midpoints between consecutive distinct eigenvalues, plus one value below
    the lowest eigenvalue (empty truncation) and one above the highest (full
    retention).  Where a midpoint rounds up to the upper eigenvalue (the two
    are adjacent floats, or their sum overflows), the lower eigenvalue takes
    its place, so each candidate keeps exactly one more group of equal
    eigenvalues than the one before.  Ascending; O(N), with no sort.
    """
    return _default_grid(model.eigenvalues)[0]


def _default_grid(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The default candidate grid of the ascending eigenvalues ``lam`` and
    the retained count at each candidate, read off the ends of the groups
    of equal eigenvalues: ``np.searchsorted(lam, grid, side="right")``
    without the search."""
    ends = np.flatnonzero(lam[1:] != lam[:-1])  # last index of every group but the top one
    lo, hi = lam[ends], lam[ends + 1]
    with np.errstate(over="ignore"):  # past the float max: an inf midpoint, an inf sentinel
        mids = 0.5 * (lo + hi)
        top = 1.5 * lam[-1]
    grid = np.concatenate(([0.5 * lam[0]], np.where(mids < hi, mids, lo), [top]))
    return grid, np.concatenate(([0], ends + 1, [lam.size]))


# ---------------------------------------------------------------------------
# the a-priori bound


class BoundPoint(NamedTuple):
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

    A point is a tuple of these seven fields in this order: it unpacks and
    compares equal to a plain tuple of the same values, and its fields
    cannot be assigned.
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
    lam, comp = fac.model.eigenvalues, fac.complements
    if candidates is None:
        grid, kept = _default_grid(lam)
    else:
        grid = np.sort(np.asarray(list(candidates), dtype=float))
        n_bad = np.count_nonzero(~(grid > 0.0))
        if grid.size == 0 or n_bad:
            raise ConfigError(
                f"candidate grid must be non-empty and positive; {n_bad} of "
                f"{grid.size} candidates are not positive reals"
            )
        kept = np.searchsorted(lam, grid, side="right")  # count of lam <= n; lam is sorted
    Gn = _source_weights(plan.source.G, grid[kept < lam.size])  # a prefix of the sorted grid
    tail = np.concatenate((plan.source.M / Gn, np.zeros(grid.size - Gn.size)))
    safe, degenerate = _safe_complement(comp)  # degenerate: -0.0 too
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
        drop = w * sub(fac.z, reference).coeffs
        ret = w * (fac.z.coeffs / safe - reference.coeffs)
        # a square overflows from about 1.3e154 on; past 2**480 both columns
        # take one power-of-two scale, which is exact and leaves the sums of
        # N < 2**60 squares finite.  Below it nothing is scaled, so a prefix
        # of small modes keeps its bits instead of turning subnormal.
        e = max(0, int(np.frexp(max(np.max(np.abs(drop)), np.max(np.abs(ret))))[1]) - 480)
        prefix = np.concatenate(([0.0], np.cumsum(np.ldexp(ret, -e) ** 2)))
        suffix = np.concatenate((np.cumsum(np.ldexp(drop, -e)[::-1] ** 2)[::-1], [0.0]))
        err = np.ldexp(np.sqrt(prefix[kept] + suffix[kept]), e)
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

    All C candidates share one pass (plus G at each truncating candidate):
    O(N + C) on the default grid, whose retained counts are the ends of the
    groups of equal eigenvalues, and O(N + C log N) on a custom grid, whose
    counts come from a ``searchsorted``.  A running maximum of 1/(1 - F)
    gives the amplification, and prefix and suffix sums the measured error.
    Tail, amplification and bound are bitwise those of a per-candidate
    evaluation; ``true_error`` equals ``norm_s`` of the regularized fixed
    point minus the reference to 1e-13 relative, not bitwise, as the
    summation order differs.

    The points are built with Python's cyclic garbage collector paused, and
    the collector's previous state (enabled or disabled) is restored
    afterwards, also on an exception.  The pause is process-wide and lasts
    about 1 ms at N = 4096; no user code runs during it.
    """
    grid, kept, tail, amp, bound, err = _bound_arrays(plan, fac, candidates, phibar_reference)
    errors = [None] * grid.size if err is None else err.tolist()
    empty = int(np.count_nonzero(kept == 0))  # a prefix: the grid is sorted
    lam_max = [None] * empty + fac.model.eigenvalues[kept[empty:] - 1].tolist()
    columns = (
        grid.tolist(), tail.tolist(), amp.tolist(), bound.tolist(), errors, kept.tolist(), lam_max
    )
    # The collector untracks exact tuples but never a tuple subclass, so C
    # new points would set off about C/700 young collections that find no
    # garbage and only promote the points.
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        # BoundPoint._make without its Python frame per point; zip gives 7 fields each
        return list(map(tuple.__new__, itertools.repeat(BoundPoint), zip(*columns)))
    finally:
        if paused:
            gc.enable()


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
