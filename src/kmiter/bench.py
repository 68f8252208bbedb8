"""Experiment harness: configuration, runs, tables, and report emission.

A single JSON document configures an experiment end to end: the spectrum,
the problem with its data sources, the iteration schedule, optional noise,
and where to write the report.  :func:`run_experiment` executes one such
configuration against the closed-form oracle of :mod:`kmiter.problems`;
:func:`run_cutoff_study` runs the noisy regularization pipeline on the
same data set-up, with fixed elliptic data, and reports the bound curve
with the selected cutoff; :func:`run_convergence_table` and
:func:`run_decay_table` assemble the two benchmark tables (relative L2
error per mode over step checkpoints for the elliptic problem, and the
backward-heat decay comparison for two diffusion constants).

Reports serialize to CSV (header ``k,rel_error,successive_diff,residual``),
JSON (lossless, including the spectrum model, so reports can be parsed back
into the same values), or markdown.  All numbers in text formats carry six
significant digits; JSON keeps full precision.  Files are written
atomically (temp file plus rename), so a crashed or parallel run never
leaves a half-written report behind.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, config_number
from .gridio import ingest_grid, read_grid_csv, synth_data
from .iterations import (
    CheckpointRecord,
    IterationFactors,
    IterationReport,
    IterationSchedule,
    StoppingRule,
    build_factors,
    default_scale,
    run_schedule,
)
from .problems import (
    Elliptic,
    Hyperbolic,
    Parabolic,
    elliptic_dt_solution_at,
    hyperbolic_solution_dt0,
    parabolic_backward_trace,
)
from .regularization import (
    BoundPoint,
    CutoffSelection,
    NoiseSpec,
    RegularizerPlan,
    SourceCondition,
    add_noise,
    error_bound_curve,
    measure_eps_prime,
    power_source_function,
    select_n_star,
    source_constant,
)
from .spectral import (
    CustomBasis,
    Sine1D,
    SineRect2D,
    SpectralVec,
    SpectrumModel,
    from_coeffs,
    make_custom_spectrum,
    make_sine_spectrum_1d,
    make_sine_spectrum_rect,
    zeros,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "TableResult",
    "load_config",
    "run_experiment",
    "run_convergence_table",
    "run_decay_table",
    "run_cutoff_study",
    "render_report",
    "render_table",
]

FORMATS = ("csv", "json", "markdown")


# ---------------------------------------------------------------------------
# configuration


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment configuration; see :func:`load_config`."""

    problem: dict
    spectrum: dict
    schedule: dict
    noise: Optional[dict] = None
    output: Optional[dict] = None


# Required and optional keys of every config object: one row per top-level
# section, per problem kind, per spectrum basis and per data-source form.  A
# missing key, or one that its row does not list, is refused.  A generator
# source takes further keys, which synth_data checks as its parameters.
CONFIG_KEYS = {
    ("config", None): (("problem", "spectrum", "schedule"), ("noise", "output")),
    ("problem", "elliptic"): (("kind", "T", "f", "g"), ()),
    ("problem", "hyperbolic"): (("kind", "T", "f", "g"), ()),
    ("problem", "parabolic"): (("kind", "T", "f"), ("gamma", "a2")),
    ("spectrum", "sine1d"): (("basis",), ("n_modes", "length")),
    ("spectrum", "sine_rect"): (("basis",), ("nx", "ny", "lx", "ly")),
    ("spectrum", "custom"): (("basis", "eigenvalues"), ()),
    ("schedule", None): (("checkpoints",), ("mode", "max_steps", "successive_diff_tol", "scale")),
    ("noise", None): (("eps", "seed"), ("norm_scale",)),
    ("output", None): ((), ("format", "path")),
    ("source", "csv"): (("csv",), ()),
    ("source", "coeffs"): (("coeffs",), ()),
    ("source", "generator"): (("generator",), None),
}


def _checked(obj, section: str, selector: Optional[str] = None, where: Optional[str] = None):
    """A copy of the config object ``obj`` after checking its keys against
    its row of :data:`CONFIG_KEYS`.  The row is picked by the value of the
    key ``selector`` or, for a data source, by the first form key present.
    ``where`` names the object in messages (default: ``section``)."""
    where = where or section
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    variants = [v for s, v in CONFIG_KEYS if s == section]
    variant = None
    if selector is not None:
        if selector not in obj:
            raise ConfigError(f"{where}: missing required key {selector!r}")
        variant = obj[selector]
        if variant not in variants:
            raise ConfigError(f"{where}.{selector} must be {'/'.join(variants)}, got {variant!r}")
        where = f"{where} ({selector} {variant})"
    elif variants != [None]:
        variant = next((v for v in variants if v in obj), None)
        if variant is None:
            raise ConfigError(f"{where} needs one of the keys {', '.join(variants)}")
        where = f"{where} ({variant} source)"
    required, optional = CONFIG_KEYS[section, variant]
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}: missing required key {key!r}")
    unknown = [] if optional is None else [k for k in obj if k not in required + optional]
    if unknown:
        raise ConfigError(
            f"{where}: unknown key {unknown[0]!r}; it takes {', '.join(required + optional)}"
        )
    return dict(obj)


def _check_source(src, where: str) -> None:
    src = _checked(src, "source", where=where)
    if "csv" in src and not os.path.exists(src["csv"]):
        raise ConfigError(f"referenced data file does not exist: {src['csv']}")
    if src.get("generator") == "parabolic_terminal" and isinstance(src.get("u0"), dict):
        _check_source(src["u0"], f"{where}.u0")


def load_config(obj) -> ExperimentConfig:
    """Parse a config from a dict, a JSON string path, or a file path.

    Validation is fail-fast for structure: every object's keys against
    :data:`CONFIG_KEYS`, known kinds and bases, referenced files, and the
    checkpoints as integers.  Other values are converted, and a value of
    the wrong type refused, where they are used; so are value-level
    invariants (gamma bounds, resonance).
    """
    if isinstance(obj, (str, os.PathLike)):
        try:
            with open(obj) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{obj}: invalid JSON: {exc}") from None
    elif isinstance(obj, dict):
        data = obj
    else:
        raise ConfigError(f"config must be a path or a dict, got {type(obj).__name__}")

    data = _checked(data, "config")
    problem = _checked(data["problem"], "problem", "kind")
    for key in ("f", "g"):
        if key in problem:
            _check_source(problem[key], f"problem.{key}")
    spectrum = _checked(data["spectrum"], "spectrum", "basis")
    schedule = _checked(data["schedule"], "schedule")
    # read as step counts now: the --steps flag compares them
    schedule["checkpoints"] = _checkpoints(schedule["checkpoints"])
    noise, output = (
        None if data.get(key) is None else _checked(data[key], key) for key in ("noise", "output")
    )
    if output is not None:
        fmt = output.get("format", "csv")
        if fmt not in FORMATS:
            raise ConfigError(f"output.format must be one of {FORMATS}, got {fmt!r}")
    return ExperimentConfig(
        problem=problem, spectrum=spectrum, schedule=schedule, noise=noise, output=output
    )


def build_model(spectrum: dict) -> SpectrumModel:
    basis = spectrum.get("basis")
    if basis == "sine1d":
        return make_sine_spectrum_1d(
            config_number(spectrum.get("n_modes", 16), "spectrum.n_modes", int),
            config_number(spectrum.get("length", 1.0), "spectrum.length"),
        )
    if basis == "sine_rect":
        return make_sine_spectrum_rect(
            config_number(spectrum.get("nx", 8), "spectrum.nx", int),
            config_number(spectrum.get("ny", 8), "spectrum.ny", int),
            config_number(spectrum.get("lx", 1.0), "spectrum.lx"),
            config_number(spectrum.get("ly", 1.0), "spectrum.ly"),
        )
    if basis == "custom":
        eigenvalues = _numbers(spectrum.get("eigenvalues", ()), "spectrum.eigenvalues")
        return make_custom_spectrum(eigenvalues)
    raise ConfigError(f"unknown spectrum basis {basis!r}")


def _numbers(values, where: str) -> np.ndarray:
    """A config list of finite numbers as a float array; anything else,
    such as a ``null`` entry (which numpy reads as NaN), is a ConfigError
    naming the key ``where``."""
    try:
        numbers = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        numbers = None
    if numbers is None or not np.all(np.isfinite(numbers)):
        raise ConfigError(f"{where} must be a list of finite numbers")
    return numbers


def resolve_source(src: dict, model: SpectrumModel) -> SpectralVec:
    """Turn a data-source object into a coefficient vector.

    Recognized forms: ``{"csv": path}`` (grid samples, ingested by
    quadrature), ``{"coeffs": [...]}``, and ``{"generator": name, ...}``
    with the generators of :func:`kmiter.gridio.synth_data`; the
    ``parabolic_terminal`` generator takes its ``u0`` as a nested source.
    Its keys are checked against :data:`CONFIG_KEYS`.
    """
    return _resolve_source(src, model)[0]


def _resolve_source(src: dict, model: SpectrumModel):
    """The datum of :func:`resolve_source` and, for a ``parabolic_terminal``
    datum with a nested ``u0``, ``(u0, T / a2)``: its trace (else None)."""
    src = _checked(src, "source", where="data source")
    if "csv" in src:
        return ingest_grid(read_grid_csv(src["csv"]), model), None
    if "coeffs" in src:
        return from_coeffs(model, _numbers(src["coeffs"], "data source coeffs")), None
    params = src  # a copy, so the generator's name and u0 can be replaced
    gen = params.pop("generator")
    if not (gen == "parabolic_terminal" and isinstance(params.get("u0"), dict)):
        return synth_data(gen, model, **params), None
    params["u0"] = resolve_source(params["u0"], model)
    datum = synth_data(gen, model, **params)
    return datum, (params["u0"], float(params["T"]) / float(params.get("a2", 1.0)))


# ---------------------------------------------------------------------------
# experiment runs


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    report: IterationReport
    reference: SpectralVec
    model: SpectrumModel
    factors: IterationFactors
    paths: tuple[str, ...] = ()


def _build_problem(problem: dict, model: SpectrumModel, f: SpectralVec, g: Optional[SpectralVec]):
    kind = problem["kind"]
    T = config_number(problem["T"], "problem.T")
    if kind == "elliptic":
        return Elliptic(T=T, f=f, g=g)
    if kind == "hyperbolic":
        return Hyperbolic(T=T, f=f, g=g)
    a2 = config_number(problem.get("a2", 1.0), "problem.a2")
    if not (a2 > 0.0):
        raise ConfigError(f"problem.a2 must be positive, got {a2!r}")
    gamma = config_number(problem.get("gamma", 1.0), "problem.gamma")
    return Parabolic(T=T / a2, f=f, gamma=gamma)


def _oracle_reference(spec) -> SpectralVec:
    if isinstance(spec, Elliptic):
        return elliptic_dt_solution_at(spec, spec.T)
    if isinstance(spec, Hyperbolic):
        return hyperbolic_solution_dt0(spec)
    return parabolic_backward_trace(spec)


def _checkpoints(values) -> list[int]:
    """``schedule.checkpoints`` as step counts: a list of integers."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError("schedule.checkpoints must be a list of step counts")
    return [config_number(k, f"schedule.checkpoints[{i}]", int) for i, k in enumerate(values)]


def _build_schedule(schedule: dict) -> IterationSchedule:
    cps = tuple(schedule["checkpoints"])
    stop = None
    if any(k in schedule for k in ("max_steps", "successive_diff_tol", "scale")):
        stop = StoppingRule(
            max_steps=config_number(
                schedule.get("max_steps", cps[-1] if cps else 1), "schedule.max_steps", int
            ),
            successive_diff_tol=config_number(
                schedule.get("successive_diff_tol", 0.0), "schedule.successive_diff_tol"
            ),
            scale=None if schedule.get("scale") is None else config_number(
                schedule["scale"], "schedule.scale"
            ),
        )
    return IterationSchedule(
        checkpoints=cps, mode=schedule.get("mode", "closed_form"), stop=stop
    )


def _data_stage(problem: dict, spectrum: dict, noise: Optional[dict]):
    """``(model, clean problem, noisy problem, reference)`` of one run.

    The reference is the trace of the clean data.  A ``noise`` section
    perturbs the data of the noisy problem (else it is the clean one): a
    second-order problem splits the level evenly across f and g, with seeds
    ``seed`` and ``seed + 1``; the parabolic terminal state takes it whole.
    """
    model = build_model(spectrum)
    kind = problem["kind"]
    f, trace = _resolve_source(problem["f"], model)
    g = resolve_source(problem["g"], model) if kind != "parabolic" else None
    clean = _build_problem(problem, model, f, g)
    # A terminal datum made from a known u0 over the problem's own horizon has
    # u0 as its exact trace; rebuilding it through exp(+lambda^2 T) would
    # overflow on modes where the datum underflowed.
    if kind == "parabolic" and trace is not None and trace[1] == clean.T:
        reference = trace[0]
    else:
        reference = _oracle_reference(clean)
    if noise is None:
        return model, clean, clean, reference
    eps = config_number(noise["eps"], "noise.eps")
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ConfigError(f"noise.eps must be positive and finite, got {eps!r}")
    seed = config_number(noise["seed"], "noise.seed", int)
    scale = config_number(noise.get("norm_scale", 0.0), "noise.norm_scale")
    if kind == "parabolic":
        f = add_noise(f, NoiseSpec(eps=eps, seed=seed, norm_scale=scale))
    else:
        half = eps / math.sqrt(2.0)
        f = add_noise(f, NoiseSpec(eps=half, seed=seed, norm_scale=scale))
        g = add_noise(g, NoiseSpec(eps=half, seed=seed + 1, norm_scale=scale))
    return model, clean, _build_problem(problem, model, f, g), reference


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute one configured run against the closed-form reference.

    Data, reference and noise come from :func:`_data_stage`, as in
    :func:`run_cutoff_study`.  Reports land in the configured output file,
    if any.
    """
    model, _, spec, reference = _data_stage(cfg.problem, cfg.spectrum, cfg.noise)
    fac = build_factors(spec)
    report = run_schedule(fac, zeros(model), _build_schedule(cfg.schedule), reference=reference)

    paths = ()
    if cfg.output is not None and cfg.output.get("path"):
        fmt = cfg.output.get("format", "csv")
        emit_report(report, fmt, cfg.output["path"])
        paths = (str(cfg.output["path"]),)
    return ExperimentResult(
        report=report, reference=reference, model=model, factors=fac, paths=paths
    )


# ---------------------------------------------------------------------------
# benchmark tables


@dataclasses.dataclass(frozen=True)
class TableResult:
    """Relative L2 errors, one row per run, one column per checkpoint."""

    title: str
    row_labels: tuple[str, ...]
    checkpoints: tuple[int, ...]
    errors: tuple[tuple[float, ...], ...]


CONVERGENCE_CHECKPOINTS = (10**2, 10**3, 10**5, 10**6, 10**8, 10**9)
CONVERGENCE_MODES = (1, 2, 3)
CONVERGENCE_T = 1.0
DECAY_CHECKPOINTS = (10, 10**3, 10**4, 10**5, 10**6)
DECAY_A2 = (8.0, 2.0)
DECAY_T = 0.0625


def _error_table(title: str, configs: dict, checkpoints) -> TableResult:
    """One row per labelled config: its relative L2 errors at the checkpoints."""
    runs = (run_experiment(cfg).report.records for cfg in configs.values())
    rows = tuple(tuple(r.error_vs_reference for r in run if r.k in checkpoints) for run in runs)
    return TableResult(title, tuple(configs), tuple(int(c) for c in checkpoints), rows)


def run_convergence_table(
    n_modes: int = 3,
    checkpoints: tuple[int, ...] = CONVERGENCE_CHECKPOINTS,
) -> TableResult:
    """Elliptic single-mode convergence table.

    For data f = 0, g = e_k on the unit interval, the iterate after m steps
    misses the true Neumann trace by the factor tanh(k pi T)^(2m); the rows
    show how many steps each mode needs.  Closed-form evaluation keeps the
    10^9-step column exact and cheap.
    """
    n = max(int(n_modes), max(CONVERGENCE_MODES))
    configs = {
        f"mode {k}": ExperimentConfig(
            problem={
                "kind": "elliptic",
                "T": CONVERGENCE_T,
                "f": {"generator": "zero"},
                "g": {"generator": "unit_mode", "k": k},
            },
            spectrum={"basis": "sine1d", "n_modes": n, "length": 1.0},
            schedule={"checkpoints": list(checkpoints), "mode": "closed_form"},
        )
        for k in CONVERGENCE_MODES
    }
    return _error_table(
        "Elliptic reconstruction: relative L2 error by step count", configs, checkpoints
    )


def run_decay_table(
    nx: int = 12,
    ny: int = 12,
    gamma: float = 2.0,
    checkpoints: tuple[int, ...] = DECAY_CHECKPOINTS,
) -> TableResult:
    """Backward-heat comparison for two diffusion constants.

    The initial state is a synthetic smooth-bump-plus-square-wave profile
    on the unit square; its terminal state after the forward flow is the
    datum.  Faster diffusion (larger a^2, shorter effective horizon) damps
    high modes less, so its reconstruction error sits below the slower run
    at every checkpoint; exact percentages depend entirely on the choice of
    profile and are not meaningful beyond that ordering.
    """
    u0 = {"generator": "piecewise_profile"}
    configs = {
        f"a^2 = {a2:g}": ExperimentConfig(
            problem={
                "kind": "parabolic",
                "T": DECAY_T,
                "a2": a2,
                "gamma": float(gamma),
                "f": {"generator": "parabolic_terminal", "u0": u0, "T": DECAY_T, "a2": a2},
            },
            spectrum={"basis": "sine_rect", "nx": int(nx), "ny": int(ny), "lx": 1.0, "ly": 1.0},
            schedule={"checkpoints": list(checkpoints), "mode": "closed_form"},
        )
        for a2 in DECAY_A2
    }
    return _error_table("Backward heat: relative L2 error by step count", configs, checkpoints)


# ---------------------------------------------------------------------------
# cutoff study (noisy regularization pipeline)


CUTOFF_T = 0.25
CUTOFF_SOURCE_Q = 1.0


@dataclasses.dataclass(frozen=True)
class CutoffStudyResult:
    curve: tuple[BoundPoint, ...]
    selection: CutoffSelection
    eps_prime: float
    error_at_star: float
    best_error: float
    model: SpectrumModel


def run_cutoff_study(
    n_modes: int = 16,
    eps: float = 1e-4,
    seed: int = 0,
) -> CutoffStudyResult:
    """Noisy elliptic reconstruction with spectral-cutoff selection.

    The data set-up and noise split are those of ``elliptic --eps``, on
    fixed data: T = 0.25, f = 0, g = ``piecewise_profile``.  The trace is
    the oracle du/dt(T) of the clean data, not data built from a known
    trace.  The study measures the induced error on the affine term at
    s = -1/2, evaluates the a-priori bound over all candidate cutoffs, and
    compares the selected cutoff with the best measured error on the grid.
    """
    model, clean, noisy, phibar = _data_stage(
        {"kind": "elliptic", "T": CUTOFF_T, "f": {"generator": "zero"},
         "g": {"generator": "piecewise_profile"}},
        {"basis": "sine1d", "n_modes": n_modes, "length": 1.0},
        {"eps": eps, "seed": seed},
    )
    fac_clean, fac_noisy = build_factors(clean), build_factors(noisy)
    s = default_scale("elliptic")
    G = power_source_function(CUTOFF_SOURCE_Q)
    source = SourceCondition(M=source_constant(phibar, G, s), G=G, s=s)
    eps_prime = measure_eps_prime(fac_clean, fac_noisy, s)
    plan = RegularizerPlan(n=float(model.eigenvalues[0]), eps_prime=eps_prime, source=source)

    curve = error_bound_curve(plan, fac_noisy, phibar_reference=phibar)
    selection = select_n_star(plan, fac_noisy)
    measured = [p.true_error for p in curve]
    return CutoffStudyResult(
        curve=tuple(curve), selection=selection, eps_prime=eps_prime,
        error_at_star=float(measured[selection.index]), best_error=float(min(measured)),
        model=model,
    )


# ---------------------------------------------------------------------------
# report serialization


def _fmt(x: Optional[float]) -> str:
    if x is None:
        return ""
    return f"{x:.6g}"


_SCALARS = {str, int, float, bool, type(None)}


def _dumps(obj, pad: str = "") -> str:
    """``json.dumps(obj, indent=2)``, nested at the indentation ``pad``.

    The pure-Python indenting encoder makes several calls per value.  Here
    a dict or list of plain scalars is one call of the C encoder, whose
    item separator carries the line break and the indentation, and a list
    of plain ints is one join.  Other dicts with str keys, lists and tuples
    recurse; anything else, such as an empty container or a numpy scalar,
    is ``json.dumps`` itself.
    """
    kind = type(obj)
    if obj and kind in (dict, list, tuple):
        inner = pad + "  "
        sep = ",\n" + inner
        members = set(map(type, obj.values() if kind is dict else obj))
        body = None
        if members == {int} and kind is not dict:
            body = sep.join(map(int.__repr__, obj))
        elif members <= _SCALARS:
            body = json.dumps(obj, separators=(sep, ": "))[1:-1]
        elif kind is not dict:
            body = sep.join([_dumps(v, inner) for v in obj])
        elif set(map(type, obj)) == {str}:
            body = sep.join([json.dumps(k) + ": " + _dumps(v, inner) for k, v in obj.items()])
        if body is not None:
            left, right = "{}" if kind is dict else "[]"
            return left + "\n" + inner + body + "\n" + pad + right
    return json.dumps(obj, indent=2).replace("\n", "\n" + pad)


def render_rows(
    fmt: str,
    columns,
    rows,
    payload: Callable[[], object],
    *,
    title: Optional[str] = None,
    notes=(),
    csv_notes=(),
    md_rows=None,
) -> str:
    """Render one table of formatted cells as CSV, JSON, or markdown text.

    ``columns`` holds one ``(csv name, markdown name, markdown rule)`` triple
    per column, the rule being ``---:``, ``---`` or ``:---:``.  ``rows`` is
    an iterable of cell-string sequences, read once and not at all for
    JSON; ``md_rows``, when given, replaces it in markdown.  Markdown puts
    ``title`` above the table and ``notes`` below it; CSV appends
    ``csv_notes`` as extra lines.  JSON prints
    ``payload()``, which is called for that format only.  An unknown format
    raises :class:`ConfigError`.
    """
    if fmt == "json":
        return _dumps(payload()) + "\n"
    if fmt == "csv":
        lines = [",".join(c[0] for c in columns)]
        lines += [",".join(row) for row in rows]
        lines += csv_notes
    elif fmt == "markdown":
        def line(cells):
            return "| " + " | ".join(cells) + " |"

        lines = [] if title is None else [title, ""]
        lines += [line(c[1] for c in columns), line(c[2] for c in columns)]
        lines += [line(row) for row in (rows if md_rows is None else md_rows)]
        if notes:
            lines += ["", *notes]
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    return "\n".join(lines) + "\n"


REPORT_COLUMNS = tuple(
    (name, name, "---:") for name in ("k", "rel_error", "successive_diff", "residual")
)


def render_report(report: IterationReport, fmt: str) -> str:
    """Render an IterationReport as CSV, JSON, or markdown text."""
    rows = [
        [str(r.k), _fmt(r.error_vs_reference), _fmt(r.successive_diff), _fmt(r.residual)]
        for r in report.records
    ]
    note = (
        f"terminated at k = {report.final_k} ({report.termination_reason}), "
        f"norm index {report.scale:g}"
    )
    return render_rows(fmt, REPORT_COLUMNS, rows, lambda: report_to_dict(report), notes=(note,))


def _basis_to_dict(basis) -> dict:
    if isinstance(basis, Sine1D):
        return {"kind": "sine1d", "length": basis.length}
    if isinstance(basis, SineRect2D):
        return {"kind": "sine_rect", "lx": basis.lx, "ly": basis.ly, "nx": basis.nx, "ny": basis.ny}
    if isinstance(basis, CustomBasis):
        return {"kind": "custom"}
    raise ConfigError(f"unknown basis {basis!r}")


def _basis_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "sine1d":
        return Sine1D(length=float(d["length"]))
    if kind == "sine_rect":
        return SineRect2D(
            lx=float(d["lx"]), ly=float(d["ly"]), nx=int(d["nx"]), ny=int(d["ny"])
        )
    if kind == "custom":
        return CustomBasis()
    raise ConfigError(f"unknown basis kind {kind!r}")


def model_to_dict(model: SpectrumModel) -> dict:
    return {
        "basis": _basis_to_dict(model.basis),
        "eigenvalues": model.eigenvalues.tolist(),
        "mode_index_map": model.mode_index_map.tolist(),
    }


def model_from_dict(d: dict) -> SpectrumModel:
    return SpectrumModel(
        eigenvalues=np.asarray(d["eigenvalues"], dtype=float),
        basis=_basis_from_dict(d["basis"]),
        mode_index_map=d["mode_index_map"],
    )


def report_to_dict(report: IterationReport) -> dict:
    """JSON-ready mirror of the report, including the model for losslessness."""
    return {
        "kind": report.kind,
        "scale": report.scale,
        "final_k": report.final_k,
        "termination_reason": report.termination_reason,
        "model": model_to_dict(report.records[0].iterate.model) if report.records else None,
        "records": [
            {
                "k": r.k,
                "successive_diff": r.successive_diff,
                "residual": r.residual,
                "error_vs_reference": r.error_vs_reference,
                "iterate": r.iterate.coeffs.tolist(),
            }
            for r in report.records
        ],
    }


def report_from_dict(d: dict) -> IterationReport:
    model = model_from_dict(d["model"]) if d.get("model") else None
    records = []
    for r in d.get("records", ()):
        records.append(
            CheckpointRecord(
                k=int(r["k"]),
                iterate=SpectralVec(np.asarray(r["iterate"], dtype=float), model),
                successive_diff=float(r["successive_diff"]),
                residual=float(r["residual"]),
                error_vs_reference=(
                    None if r.get("error_vs_reference") is None
                    else float(r["error_vs_reference"])
                ),
            )
        )
    return IterationReport(
        kind=d["kind"],
        scale=float(d["scale"]),
        records=tuple(records),
        final_k=int(d["final_k"]),
        termination_reason=d["termination_reason"],
    )


def render_table(table: TableResult, fmt: str) -> str:
    """Render a TableResult as CSV, JSON, or markdown (errors as percentages)."""
    runs = list(zip(table.row_labels, table.errors))
    columns = [("run", "run", "---")]
    columns += [(str(c), f"{c} steps", "---:") for c in table.checkpoints]
    return render_rows(
        fmt,
        columns,
        [[label, *map(_fmt, row)] for label, row in runs],
        lambda: {
            "title": table.title,
            "checkpoints": list(table.checkpoints),
            "rows": [{"label": label, "rel_errors": list(row)} for label, row in runs],
        },
        title=table.title,
        md_rows=[[label, *(f"{100.0 * e:.4g}%" for e in row)] for label, row in runs],
    )


def atomic_write_text(path, text: str) -> None:
    """Write text to ``path`` via a temp file and rename, never partially."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-kmiter-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def emit_report(report: IterationReport, fmt: str, path) -> None:
    atomic_write_text(path, render_report(report, fmt))
