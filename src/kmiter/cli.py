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

Each subcommand is declared once, in :data:`COMMANDS`: its help text, the
flags it reads and its runner.  A flag a subcommand does not read is a usage
error.  A JSON config (``--config``) supplies anything the flags do not;
flags win over config values, and the config's ``problem.kind`` must be the
subcommand.  ``--steps N`` keeps the checkpoints up to N and appends N when
it is not one of them.  Without ``--out`` reports go to stdout; with it they
are written atomically to the given path.

Exit codes: 0 success, 2 configuration/usage error, 3 numeric failure
(overflow, resonance, degenerate complement), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from typing import Callable, NamedTuple, Optional

from . import bench
from .errors import ConfigError, KmiterError, NumericError
from .problems import illposedness_demo
from .spectral import make_sine_spectrum_1d

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

DEFAULT_CHECKPOINTS = (10, 100, 1000, 10**4, 10**5, 10**6)

FLAGS = {
    "config": {"help": "JSON experiment config file"},
    "modes": {"type": int, "help": "number of modes (overrides config)"},
    "steps": {"type": int, "help": "step budget: the checkpoints up to it, then the budget"},
    "eps": {"type": float, "help": "noise level (enables the noise stage)"},
    "seed": {"type": int, "help": "noise seed"},
    "gamma": {"type": float, "help": "parabolic relaxation weight"},
    "kind": {"choices": ["elliptic", "hyperbolic", "parabolic"], "default": "elliptic"},
    "out": {"help": "output path (stdout when omitted)"},
    "format": {"choices": list(bench.FORMATS), "help": "report format"},
}


def _trim_checkpoints(checkpoints, steps: Optional[int]) -> Optional[tuple]:
    """The ``--steps`` rule: the checkpoints up to ``steps``, then ``steps``
    itself when it is not one of them; None when no budget was given."""
    if steps is None:
        return None
    cps = tuple(k for k in checkpoints if k <= steps)
    return cps if cps and cps[-1] == steps else cps + (steps,)


def _given(**kwargs) -> dict:
    """The keyword arguments whose flag was given."""
    return {k: v for k, v in kwargs.items() if v is not None}


# ---------------------------------------------------------------------------
# default experiment configs


def _default_T(kind: str) -> float:
    """T of ``demo-illposed`` and of the default elliptic and hyperbolic
    experiments: 1/pi puts the hyperbolic phases lambda_j T at the integers
    j, well away from the resonant multiples of pi."""
    return 1.0 / math.pi if kind == "hyperbolic" else 1.0


def _default_config(kind: str) -> dict:
    if kind == "parabolic":
        terminal = {"u0": {"generator": "piecewise_profile"}, "T": 0.0625}
        problem = {"T": 0.0625, "gamma": 1.0, "f": {"generator": "parabolic_terminal", **terminal}}
    else:
        problem = {
            "T": _default_T(kind),
            "f": {"generator": "zero"},
            "g": {"generator": "unit_mode", "k": 1},
        }
    return {
        "problem": {"kind": kind, **problem},
        "spectrum": {"basis": "sine1d", "n_modes": 16, "length": 1.0},
        "schedule": {"checkpoints": list(DEFAULT_CHECKPOINTS)},
    }


def _assemble_config(kind: str, args) -> bench.ExperimentConfig:
    if args.config:
        raw = bench.load_config(args.config)
        if raw.problem["kind"] != kind:
            raise ConfigError(
                f"{args.config}: problem.kind is {raw.problem['kind']!r}, "
                f"but the subcommand is {kind!r}"
            )
        data = {k: v for k, v in dataclasses.asdict(raw).items() if v is not None}
    else:
        data = _default_config(kind)

    if args.modes is not None:
        spec = data["spectrum"]
        if spec.get("basis") == "sine_rect":
            spec["nx"] = spec["ny"] = args.modes
        else:
            spec["n_modes"] = args.modes
    if getattr(args, "gamma", None) is not None:  # parabolic only
        data["problem"]["gamma"] = args.gamma
    if args.steps is not None:
        data["schedule"]["checkpoints"] = _trim_checkpoints(
            data["schedule"]["checkpoints"], args.steps
        )
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


def _cmd_experiment(kind: str, args) -> None:
    cfg = _assemble_config(kind, args)
    output = cfg.output or {}
    # the report is emitted below, where the flags can override its config
    result = bench.run_experiment(dataclasses.replace(cfg, output=None))
    text = bench.render_report(result.report, args.format or output.get("format", "csv"))
    _deliver(text, args.out or output.get("path"))


def _cmd_table2(args) -> None:
    table = bench.run_convergence_table(**_given(
        n_modes=args.modes,
        checkpoints=_trim_checkpoints(bench.CONVERGENCE_CHECKPOINTS, args.steps),
    ))
    _deliver(bench.render_table(table, args.format or "markdown"), args.out)


# table1 builds an M x M rectangle of modes and samples its profile on a
# (4M + 1)^2 grid; its peak memory is about 1 KB per mode (0.94-1.13 KB
# measured from M = 512 to 2048)
_TABLE1_BYTES_PER_MODE = 1024


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _cmd_table1(args) -> None:
    if args.modes is not None and args.modes > 0:
        need = args.modes * args.modes * _TABLE1_BYTES_PER_MODE
        memory = _physical_memory()
        if memory is not None and need > memory:
            raise ConfigError(
                f"--modes {args.modes} needs about {need} bytes ({args.modes}^2 modes), "
                f"more than the {memory} bytes of physical memory"
            )
    table = bench.run_decay_table(**_given(
        nx=args.modes,
        ny=args.modes,
        gamma=args.gamma,
        checkpoints=_trim_checkpoints(bench.DECAY_CHECKPOINTS, args.steps),
    ))
    _deliver(bench.render_table(table, args.format or "markdown"), args.out)


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


def _cmd_regularize(args) -> None:
    study = bench.run_cutoff_study(**_given(n_modes=args.modes, eps=args.eps, seed=args.seed))
    _deliver(_render_cutoff_study(study, args.format or "markdown"), args.out)


DEMO_COLUMNS = (
    ("mode", "mode", "---:"),
    ("eigenvalue", "eigenvalue", "---:"),
    ("data_norm", "data norm", "---:"),
    ("solution_norm", "solution norm", "---:"),
    ("overflow", "overflow", ":---:"),
)


def _cmd_demo_illposed(args) -> None:
    fmt = args.format or "markdown"
    modes = args.modes if args.modes is not None else 8
    T = _default_T(args.kind)
    model = make_sine_spectrum_1d(modes, 1.0)
    # one pass builds only the rows the format prints: cells or JSON records
    rows = (
        (illposedness_demo(args.kind, model, T, k), lam)
        for k, lam in enumerate(model.eigenvalues.tolist(), 1)
    )
    flags = ("", "yes") if fmt == "markdown" else ("0", "1")
    text = bench.render_rows(
        fmt,
        DEMO_COLUMNS,
        (
            [
                str(r.mode_index),
                *(f"{x:.6g}" for x in (lam, r.data_norm, r.solution_norm)),
                flags[r.overflow],
            ]
            for r, lam in rows
        ),
        lambda: [
            {
                "mode": r.mode_index,
                "eigenvalue": lam,
                "data_norm": r.data_norm,
                "solution_norm": r.solution_norm,
                "overflow": r.overflow,
            }
            for r, lam in rows
        ],
        title=f"Unit data perturbation per mode ({args.kind}, T = {T:.6g})",
    )
    _deliver(text, args.out)


# ---------------------------------------------------------------------------
# the command table


class Command(NamedTuple):
    """One subcommand: its help text, the flags it reads and its runner."""

    help: str
    flags: tuple[str, ...]
    run: Callable[[argparse.Namespace], None]


EXPERIMENT_FLAGS = ("config", "modes", "steps", "eps", "seed", "out", "format")

COMMANDS = {
    "elliptic": Command(
        "Cauchy-data reconstruction of the far-side Neumann trace",
        EXPERIMENT_FLAGS, functools.partial(_cmd_experiment, "elliptic"),
    ),
    "hyperbolic": Command(
        "initial-velocity reconstruction from displacement data",
        EXPERIMENT_FLAGS, functools.partial(_cmd_experiment, "hyperbolic"),
    ),
    "parabolic": Command(
        "backward-heat reconstruction of the initial state",
        EXPERIMENT_FLAGS + ("gamma",), functools.partial(_cmd_experiment, "parabolic"),
    ),
    "table2": Command(
        "elliptic per-mode convergence table", ("modes", "steps", "out", "format"), _cmd_table2
    ),
    "table1": Command(
        "backward-heat decay comparison (a^2 = 8 vs 2)",
        ("modes", "steps", "gamma", "out", "format"), _cmd_table1,
    ),
    "regularize": Command(
        "noisy pipeline with spectral-cutoff selection",
        ("modes", "eps", "seed", "out", "format"), _cmd_regularize,
    ),
    "demo-illposed": Command(
        "data-vs-solution amplification by mode", ("modes", "kind", "out", "format"),
        _cmd_demo_illposed,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmiter",
        description="Spectral fixed-point reconstruction for ill-posed evolution problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command].run(args)
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
