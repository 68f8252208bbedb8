"""Command line driver.

Subcommands
-----------
``elliptic`` / ``hyperbolic`` / ``parabolic``
    Run one reconstruction experiment and emit a convergence report.
``table2``
    Elliptic per-mode convergence table (relative L2 error over step
    checkpoints up to 1e9, closed form).
``table1``
    Backward-heat decay comparison for diffusion constants a^2 = 8 and 2.
``regularize``
    Noisy elliptic pipeline: bound curve over candidate cutoffs and the
    selected cutoff.
``demo-illposed``
    Data-vs-solution-norm amplification table mode by mode.

A JSON config (``--config``) supplies anything the flags do not; flags win
over config values.  Without ``--out`` reports go to stdout; with it they
are written atomically to the given path.

Exit codes: 0 success, 2 configuration/usage error, 3 numeric failure
(overflow, resonance, degenerate complement), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Optional

from . import bench
from .errors import ConfigError, KmiterError, NumericError
from .problems import illposedness_demo
from .spectral import make_sine_spectrum_1d

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

DEFAULT_CHECKPOINTS = (10, 100, 1000, 10**4, 10**5, 10**6)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON experiment config file")
    p.add_argument("--modes", type=int, help="number of modes (overrides config)")
    p.add_argument("--steps", type=int, help="step budget; checkpoints are trimmed to it")
    p.add_argument("--seed", type=int, help="noise seed")
    p.add_argument("--eps", type=float, help="noise level (enables the noise stage)")
    p.add_argument("--gamma", type=float, help="parabolic relaxation weight")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.add_argument(
        "--format", choices=list(bench.FORMATS), default=None, help="report format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmiter",
        description="Spectral fixed-point reconstruction for ill-posed evolution problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("elliptic", "Cauchy-data reconstruction of the far-side Neumann trace"),
        ("hyperbolic", "initial-velocity reconstruction from displacement data"),
        ("parabolic", "backward-heat reconstruction of the initial state"),
        ("table2", "elliptic per-mode convergence table"),
        ("table1", "backward-heat decay comparison (a^2 = 8 vs 2)"),
        ("regularize", "noisy pipeline with spectral-cutoff selection"),
        ("demo-illposed", "data-vs-solution amplification by mode"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        if name == "demo-illposed":
            p.add_argument(
                "--kind",
                choices=["elliptic", "hyperbolic", "parabolic"],
                default="elliptic",
            )
    return parser


# ---------------------------------------------------------------------------
# default experiment configs


def _default_problem(kind: str, args) -> dict:
    modes = args.modes if args.modes is not None else 16
    if kind == "elliptic":
        return {
            "problem": {
                "kind": "elliptic",
                "T": 1.0,
                "f": {"generator": "zero"},
                "g": {"generator": "unit_mode", "k": 1},
            },
            "spectrum": {"basis": "sine1d", "n_modes": modes, "length": 1.0},
        }
    if kind == "hyperbolic":
        # T = 1/pi puts the phases at lambda_j T = j, integers staying well
        # away from the resonant multiples of pi.
        return {
            "problem": {
                "kind": "hyperbolic",
                "T": 1.0 / math.pi,
                "f": {"generator": "zero"},
                "g": {"generator": "unit_mode", "k": 1},
            },
            "spectrum": {"basis": "sine1d", "n_modes": modes, "length": 1.0},
        }
    return {
        "problem": {
            "kind": "parabolic",
            "T": 0.0625,
            "gamma": 1.0,
            "f": {
                "generator": "parabolic_terminal",
                "u0": {"generator": "piecewise_profile"},
                "T": 0.0625,
            },
        },
        "spectrum": {"basis": "sine1d", "n_modes": modes, "length": 1.0},
    }


def _assemble_config(kind: str, args) -> bench.ExperimentConfig:
    if args.config:
        raw = bench.load_config(args.config)
        data = {
            "problem": dict(raw.problem),
            "spectrum": dict(raw.spectrum),
            "schedule": dict(raw.schedule),
        }
        if raw.noise is not None:
            data["noise"] = dict(raw.noise)
        if raw.output is not None:
            data["output"] = dict(raw.output)
    else:
        data = _default_problem(kind, args)
        data["schedule"] = {"checkpoints": list(DEFAULT_CHECKPOINTS)}

    if args.modes is not None:
        spec = data["spectrum"]
        if spec.get("basis") == "sine_rect":
            spec["nx"] = spec["ny"] = args.modes
        else:
            spec["n_modes"] = args.modes
    if args.gamma is not None:
        data["problem"]["gamma"] = args.gamma
    if args.steps is not None:
        cps = [k for k in data["schedule"]["checkpoints"] if k <= args.steps]
        if not cps or cps[-1] != args.steps:
            cps.append(args.steps)
        data["schedule"]["checkpoints"] = cps
        data["schedule"].pop("max_steps", None)
    if args.eps is not None:
        noise = data.setdefault("noise", {})
        noise["eps"] = args.eps
        noise.setdefault("seed", 0)
    if args.seed is not None:
        data.setdefault("noise", {}).setdefault("eps", 1e-4)
        data["noise"]["seed"] = args.seed
    return bench.load_config(data)


def _deliver(text: str, out: Optional[str]) -> None:
    if out:
        bench.atomic_write_text(out, text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_experiment(kind: str, args) -> int:
    cfg = _assemble_config(kind, args)
    fmt = args.format or (cfg.output or {}).get("format", "csv")
    result = bench.run_experiment(
        dataclasses.replace(cfg, output=None)  # emission handled below
    )
    _deliver(bench.render_report(result.report, fmt), args.out or (cfg.output or {}).get("path"))
    return EXIT_OK


def _cmd_table2(args) -> int:
    kwargs = {}
    if args.modes is not None:
        kwargs["n_modes"] = args.modes
    if args.steps is not None:
        kwargs["checkpoints"] = tuple(
            k for k in bench.CONVERGENCE_CHECKPOINTS if k <= args.steps
        ) or (args.steps,)
    table = bench.run_convergence_table(**kwargs)
    _deliver(bench.render_table(table, args.format or "markdown"), args.out)
    return EXIT_OK


def _cmd_table1(args) -> int:
    kwargs = {}
    if args.modes is not None:
        kwargs["nx"] = kwargs["ny"] = args.modes
    if args.gamma is not None:
        kwargs["gamma"] = args.gamma
    if args.steps is not None:
        kwargs["checkpoints"] = tuple(
            k for k in bench.DECAY_CHECKPOINTS if k <= args.steps
        ) or (args.steps,)
    table = bench.run_decay_table(**kwargs)
    _deliver(bench.render_table(table, args.format or "markdown"), args.out)
    return EXIT_OK


CUTOFF_COLUMNS = (
    ("n", "n", "---:"),
    ("retained", "retained", "---:"),
    ("tail_bound", "tail bound", "---:"),
    ("amplification", "amplification", "---:"),
    ("bound", "bound", "---:"),
    ("true_error", "measured error", "---:"),
)


def _render_cutoff_study(study, fmt: str) -> str:
    sel = study.selection
    rows = [
        [f"{p.n:.6g}", str(p.retained)]
        + [f"{x:.6g}" for x in (p.tail_bound, p.amplification, p.bound, p.true_error)]
        for p in study.curve
    ]
    curve_fields = ("n", "tail_bound", "amplification", "bound", "true_error", "retained")
    return bench.render_rows(
        fmt,
        CUTOFF_COLUMNS,
        rows,
        lambda: {
            "n_star": sel.n_star,
            "bound_at_star": sel.bound_at_star,
            "eps_prime": study.eps_prime,
            "error_at_star": study.error_at_star,
            "best_error": study.best_error,
            "curve": [{k: getattr(p, k) for k in curve_fields} for p in study.curve],
        },
        title="Cutoff study (noisy elliptic reconstruction)",
        notes=(
            f"selected cutoff n* = {sel.n_star:.6g} (bound {sel.bound_at_star:.6g}, "
            f"measured error {study.error_at_star:.6g}; best on grid "
            f"{study.best_error:.6g}; eps' = {study.eps_prime:.6g})",
        ),
        csv_notes=(
            f"# n_star={sel.n_star:.6g}",
            f"# error_at_star={study.error_at_star:.6g}",
            f"# best_error={study.best_error:.6g}",
        ),
    )


def _cmd_regularize(args) -> int:
    study = bench.run_cutoff_study(
        n_modes=args.modes if args.modes is not None else 16,
        eps=args.eps if args.eps is not None else 1e-4,
        seed=args.seed if args.seed is not None else 0,
    )
    _deliver(_render_cutoff_study(study, args.format or "markdown"), args.out)
    return EXIT_OK


DEMO_COLUMNS = (
    ("mode", "mode", "---:"),
    ("eigenvalue", "eigenvalue", "---:"),
    ("data_norm", "data norm", "---:"),
    ("solution_norm", "solution norm", "---:"),
    ("overflow", "overflow", ":---:"),
)


def _cmd_demo_illposed(args) -> int:
    modes = args.modes if args.modes is not None else 8
    T = 1.0 / math.pi if args.kind == "hyperbolic" else 1.0
    model = make_sine_spectrum_1d(modes, 1.0)
    rows = [illposedness_demo(args.kind, model, T, k) for k in range(1, modes + 1)]
    lams = [float(model.eigenvalues[r.mode_index - 1]) for r in rows]
    cells = [
        [str(r.mode_index), *(f"{x:.6g}" for x in (lam, r.data_norm, r.solution_norm))]
        for r, lam in zip(rows, lams)
    ]
    text = bench.render_rows(
        args.format or "markdown",
        DEMO_COLUMNS,
        [c + [str(int(r.overflow))] for c, r in zip(cells, rows)],
        lambda: [
            {
                "mode": r.mode_index,
                "eigenvalue": lam,
                "data_norm": r.data_norm,
                "solution_norm": r.solution_norm,
                "overflow": r.overflow,
            }
            for r, lam in zip(rows, lams)
        ],
        title=f"Unit data perturbation per mode ({args.kind}, T = {T:.6g})",
        md_rows=[c + ["yes" if r.overflow else ""] for c, r in zip(cells, rows)],
    )
    _deliver(text, args.out)
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("elliptic", "hyperbolic", "parabolic"):
            return _cmd_experiment(args.command, args)
        if args.command == "table2":
            return _cmd_table2(args)
        if args.command == "table1":
            return _cmd_table1(args)
        if args.command == "regularize":
            return _cmd_regularize(args)
        if args.command == "demo-illposed":
            return _cmd_demo_illposed(args)
        parser.error(f"unknown command {args.command!r}")
    except NumericError as exc:
        print(f"kmiter: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConfigError as exc:
        print(f"kmiter: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KmiterError as exc:
        print(f"kmiter: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"kmiter: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
