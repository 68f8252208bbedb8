"""Frozen reference values and reference implementations for the test suite.

Every constant below was evaluated independently of the package, with mpmath
at 50 decimal digits, and pasted here verbatim (21 significant digits, which
is more than double precision can hold).  The generating expression is given
next to each value.  Tests compare library output against these numbers
instead of recomputing them with the very code under test.

The functions at the end are the row-by-row grid CSV reader and writer that
:mod:`kmiter.gridio` replaced with whole-file versions, and the bound curve
built as one frozen dataclass per candidate, which
:func:`kmiter.regularization.error_bound_curve` replaced with one pass over
its columns; tests require the library to accept, refuse and return exactly
what they do.  Last comes the sampled operator-condition check that
:func:`kmiter.iterations.check_operator_conditions` replaced with its exact
per-mode one: on samples of unit norm in the scale norm, no sampled
violation may exceed the exact one, and a unit mode reads its own term.
"""

import csv
import dataclasses
import math
from typing import Optional

import numpy as np

from kmiter.errors import ConfigError
from kmiter.gridio import make_grid_function
from kmiter.regularization import _bound_arrays
from kmiter.spectral import scale_weights

FIVE_PI = 15.7079632679489661923  # 5*pi
HALF_PI = 1.57079632679489661923  # pi/2
SQRT_1_PLUS_PI2 = 3.29690830947561515876  # sqrt(1 + pi^2)
INV_FOURTH_ROOT_1_PLUS_PI2 = 0.55073993050563608468  # (1 + pi^2)^(-1/4)

TANH_PI_SQ = 0.992558049857203786548  # tanh(pi)^2
TANH_2PI_SQ = 0.999986050727867108758  # tanh(2 pi)^2
TANH_3PI_SQ = 0.999999973950351794972  # tanh(3 pi)^2
SECH_PI_SQ = 0.00744195014279621345233  # sech(pi)^2
SECH_2PI_SQ = 0.0000139492721328912424682  # sech(2 pi)^2
SECH_3PI_SQ = 2.6049648205027511586e-8  # sech(3 pi)^2

COSH_PI = 11.5919532755215206278  # cosh(pi)
COSH_2PI = 267.746761483748222246  # cosh(2 pi)
COSH_3PI = 6195.82394430810752591  # cosh(3 pi)
INV_COSH_PI = 0.0862667383340544146966  # 1/cosh(pi)
INV_COSH_3PI = 0.000161399034089512170122  # 1/cosh(3 pi)
PI_SINH_PI = 36.2814347229842529173  # pi*sinh(pi)

INV_SIN_1 = 1.18839510577812121626  # 1/sin(1)

EXP_NEG_PI2_16 = 0.539641485816297175886  # exp(-pi^2/16)
ONE_MINUS_2EXP_NEG_PI2_16 = -0.0792829716325943517713  # 1 - 2 exp(-pi^2/16)
EXP_PI2_16 = 1.85308214116884338772  # exp(pi^2/16)
EXP_NEG_PI2_128 = 0.925791451203618072959  # exp(-pi^2/128)
EXP_NEG_PI2_32 = 0.734602944328633341128  # exp(-pi^2/32)

TANH_PI_200 = 0.473796222052701406131  # tanh(pi)^200
TANH_PI_2000 = 0.000570053917179436246252  # tanh(pi)^2000
COSH_PI_TIMES_1M_TANH_PI_2000 = 11.5853452371490485881  # cosh(pi)*(1 - tanh(pi)^2000)
TANH_2PI_2E5 = 0.247848664594316293634  # tanh(2 pi)^200000
TANH_3PI_2E6 = 0.97428671649070812731  # tanh(3 pi)^2000000
TANH_3PI_2E8 = 0.0739057346109361914574  # tanh(3 pi)^200000000
TANH_3PI_2E9 = 4.86162416109356084268e-12  # tanh(3 pi)^2000000000

PI_SQRT2 = 4.44288293815836624702  # pi*sqrt(2)
PI_SQRT5 = 7.02481473104072639316  # pi*sqrt(5)
TWO_PI_SQRT2 = 8.88576587631673249403  # 2*pi*sqrt(2)
INV_SQRT3 = 0.577350269189625764509  # 1/sqrt(3)


# ---------------------------------------------------------------------------
# grid CSV exchange, one row and one field at a time


def read_grid_csv(path, boundary="error"):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file, expected a header row") from None
        header = [h.strip().lower() for h in header]
        if header == ["x", "value"]:
            ndim = 1
        elif header == ["x", "y", "value"]:
            ndim = 2
        else:
            raise ConfigError(
                f"{path}: header must be 'x,value' or 'x,y,value', got {header!r}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != ndim + 1:
                raise ConfigError(f"{path}:{lineno}: expected {ndim + 1} fields")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    data = np.asarray(rows)
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


def write_grid_csv(gf, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if gf.ndim == 1:
            writer.writerow(["x", "value"])
            for x, v in zip(gf.axes[0], gf.values):
                writer.writerow([repr(float(x)), repr(float(v))])
        else:
            writer.writerow(["x", "y", "value"])
            for i, x in enumerate(gf.axes[0]):
                for j, y in enumerate(gf.axes[1]):
                    writer.writerow([repr(float(x)), repr(float(y)), repr(float(gf.values[i, j]))])


# ---------------------------------------------------------------------------
# the bound curve, one frozen dataclass per candidate


@dataclasses.dataclass(frozen=True)
class BoundPoint:
    n: float
    tail_bound: float
    amplification: float
    bound: float
    true_error: Optional[float] = None
    retained: int = 0
    lambda_retained_max: Optional[float] = None


def error_bound_curve(plan, fac, phibar_reference=None, candidates=None):
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


# ---------------------------------------------------------------------------
# the operator-condition sums over samples


def condition_violations(fac, sample_vectors, c, scale):
    """(condition 1, condition 2, non-expansive, worst sample), taken as
    running Python maxima of the per-sample sums in the scale norm of index
    ``scale``; on a sample of unit norm there each is a weighted mean of the
    per-mode terms."""
    w = scale_weights(fac.model, scale)
    F, comp = fac.factors, fac.complements
    v1 = v2 = vn = worst_val = -math.inf
    worst = 0
    for i, x in enumerate(sample_vectors):
        xc = x.coeffs
        n2 = float(np.dot(w, xc * xc))
        Tn2 = float(np.dot(w, (F * xc) ** 2))
        dx = comp * xc
        d2 = float(np.dot(w, dx * dx))
        ip = float(np.dot(w, dx * xc))
        viol1 = d2 - c * (n2 - Tn2)
        viol2 = (c + 1.0) / (2.0 * c) * d2 - ip
        violn = math.sqrt(Tn2) - math.sqrt(n2)
        v1, v2, vn = max(v1, viol1), max(v2, viol2), max(vn, violn)
        here = max(viol1, viol2, violn)
        if here > worst_val:
            worst_val, worst = here, i
    return v1, v2, vn, worst
