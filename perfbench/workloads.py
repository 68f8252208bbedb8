"""The four benchmark workloads and their independent correctness checks.

Each workload is a closed loop with one caller.  ``draw(i)`` makes the
inputs of op ``i`` from the run seed (benchmark-owned numpy, untimed),
``op(x, call)`` is the timed part and reaches kmiter only through ``call``
(see ``tracer.py``), and ``check(x, out)`` compares the op's outputs with a
recomputation that does not go through the kmiter function under test.  A
check that fails raises :class:`CheckFailed`; it returns the op's quality
figures otherwise.

Why these workloads:

* ``cutoff``: the regularization layer does nearly all of the work here and
  none anywhere else.  T = 600/lambda_max makes ``1 - F`` underflow on
  about 40 % of the modes, so every op runs both the finite path of the
  bound curve and its degenerate-complement path (exception and message).
* ``schedule``: ``iterations`` and ``problems`` do most of the work, used
  two ways: a few large closed-form evaluations and many small steps.
* ``io``: grid and report I/O, which no other workload measures; the dense
  quadrature matrices show in peak memory.
* ``cli``: one ``python -m kmiter`` process per op, so interpreter start,
  import and argument handling are measured.

The horizons keep the exact traces representable: a generic mode with
lambda T above about 710 overflows for a real numerical reason.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

from kmiter import (
    Elliptic,
    Hyperbolic,
    IterationSchedule,
    NoiseSpec,
    Parabolic,
    RegularizerPlan,
    SourceCondition,
    add_noise,
    build_factors,
    elliptic_dt_solution_at,
    error_bound_curve,
    fixed_point,
    from_coeffs,
    hyperbolic_solution_dt0,
    ingest_grid,
    iterate_stepwise,
    make_sine_spectrum_1d,
    measure_eps_prime,
    parabolic_backward_trace,
    power_source_function,
    read_grid_csv,
    regularized_fixed_point,
    render_grid,
    render_report,
    report_closed_form,
    select_n_star,
    source_constant,
    write_grid_csv,
    zeros,
)
from kmiter.bench import atomic_write_text, report_from_dict

REL_TOL = 1e-12
STEPWISE_STEPS = 200


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's reference."""


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, *stream])


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    base = float(np.linalg.norm(b))
    diff = float(np.linalg.norm(np.asarray(a) - b))
    return diff / base if base > 0.0 else diff


def require_close(what: str, a, b, tol: float = REL_TOL) -> None:
    e = rel_err(a, b)
    if not e <= tol:
        raise CheckFailed(f"{what}: relative difference {e:.3e} above {tol:g}")


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def sech(x: np.ndarray) -> np.ndarray:
    return 1.0 / np.cosh(x)


class Workload:
    name = ""
    N = 0
    ALT_N = None  # second size behind the ``.scale4x`` metrics, or None
    ALT_REPS = 0

    def __init__(self, seed: int, n: int, scratch: str, call):
        self.seed, self.n, self.scratch = seed, n, scratch

    def extra(self, tracer) -> None:
        """Traced runs only: layer calls outside the op loop."""


# ---------------------------------------------------------------------------
# cutoff


class Cutoff(Workload):
    """Noisy elliptic reconstruction with a-priori cutoff selection."""

    name = "cutoff"
    N = 4096
    ALT_N = 4 * N
    ALT_REPS = 1
    EPS = 1e-4
    Q = 1.0
    S = -0.5

    def __init__(self, seed, n, scratch, call):
        super().__init__(seed, n, scratch, call)
        self.model = call("spectral.make_sine_spectrum_1d", make_sine_spectrum_1d, n, 1.0)
        self.lam = np.array(self.model.eigenvalues)
        self.T = 600.0 / self.lam[-1]
        self.sech = sech(self.lam * self.T)
        self.w = (1.0 + self.lam**2) ** self.S

    def draw(self, i):
        rng = rng_for(self.seed, i)
        trace = rng.standard_normal(self.n) / (1.0 + self.lam**2)
        return {"trace": trace, "g": self.sech * trace, "noise_seeds": rng.integers(0, 2**31, 2)}

    def op(self, x, call):
        m, T = self.model, self.T
        f = call("spectral.zeros", zeros, m)
        g = call("spectral.from_coeffs", from_coeffs, m, x["g"])
        clean = call("problems.Elliptic", Elliptic, T=T, f=f, g=g)
        ref = call("problems.elliptic_dt_solution_at", elliptic_dt_solution_at, clean, T)
        fac_clean = call("iterations.build_factors", build_factors, clean)
        half = self.EPS / math.sqrt(2.0)
        seed_f, seed_g = (int(s) for s in x["noise_seeds"])
        ns_f = call("regularization.NoiseSpec", NoiseSpec, eps=half, seed=seed_f)
        ns_g = call("regularization.NoiseSpec", NoiseSpec, eps=half, seed=seed_g)
        f_eps = call("regularization.add_noise", add_noise, f, ns_f)
        g_eps = call("regularization.add_noise", add_noise, g, ns_g)
        noisy = call("problems.Elliptic", Elliptic, T=T, f=f_eps, g=g_eps)
        fac = call("iterations.build_factors", build_factors, noisy)
        eps_prime = call("regularization.measure_eps_prime", measure_eps_prime, fac_clean, fac, self.S)
        G = call("regularization.power_source_function", power_source_function, self.Q)
        M = call("regularization.source_constant", source_constant, ref, G, self.S)
        source = call("regularization.SourceCondition", SourceCondition, M=M, G=G, s=self.S)
        plan = call(
            "regularization.RegularizerPlan", RegularizerPlan,
            n=float(self.lam[0]), eps_prime=eps_prime, source=source,
        )
        curve = call("regularization.error_bound_curve", error_bound_curve, plan, fac, ref)
        sel = call("regularization.select_n_star", select_n_star, plan, fac)
        phi = call(
            "regularization.regularized_fixed_point", regularized_fixed_point, fac, fac.z, sel.n_star
        )
        return {"ref": ref, "fac_clean": fac_clean, "fac": fac, "curve": curve, "sel": sel, "phi": phi}

    def check(self, x, out):
        lam, w = self.lam, self.w
        ref = out["ref"].coeffs
        require_close("elliptic reference vs drawn trace", ref, x["trace"])
        fac, curve, sel = out["fac"], out["curve"], out["sel"]
        comp, z = fac.complements, fac.z.coeffs

        grid = np.concatenate(([0.5 * lam[0]], 0.5 * (lam[:-1] + lam[1:]), [1.5 * lam[-1]]))
        n = np.array([p.n for p in curve])
        require(n.shape == grid.shape, "candidate count")
        require_close("candidate cutoffs", n, grid)

        M = math.sqrt(float(np.sum(w * ((1.0 + lam**2) ** (0.5 * self.Q) * ref) ** 2)))
        eps_prime = math.sqrt(float(np.sum(w * (out["fac_clean"].z.coeffs - z) ** 2)))
        with np.errstate(divide="ignore", over="ignore"):
            prefix_max = np.maximum.accumulate(1.0 / comp)
        kept = np.searchsorted(lam, grid, side="right")
        amp_ref = np.where(kept > 0, np.maximum(1.0, prefix_max[kept - 1]), 1.0)
        tail_ref = np.where(kept < lam.size, M / (1.0 + grid**2) ** (0.5 * self.Q), 0.0)
        bound_ref = tail_ref + eps_prime * amp_ref
        for what, got, want in (
            ("amplification", np.array([p.amplification for p in curve]), amp_ref),
            ("bound", np.array([p.bound for p in curve]), bound_ref),
        ):
            fin = np.isfinite(want)
            require(np.array_equal(np.isfinite(got), fin), f"{what}: infinite at other candidates")
            rel = np.abs(got[fin] - want[fin]) / np.abs(want[fin])
            require(bool(np.all(rel <= REL_TOL)), f"{what}: max relative difference {rel.max(initial=0.0):.3e}")

        bounds = np.array([p.bound for p in curve])
        idx = int(np.argmin(bounds))
        require(sel.index == idx and sel.n_star == curve[idx].n, "n* is not the first argmin")
        kept_star = lam <= sel.n_star
        safe = np.where(kept_star, comp, 1.0)
        phi_ref = np.where(kept_star, z / safe, z)
        err_ref = math.sqrt(float(np.sum(w * (phi_ref - ref) ** 2)))
        require_close("regularized fixed point at n*", out["phi"].coeffs, phi_ref)
        require_close("error at n*", [curve[idx].true_error], [err_ref])
        errors = np.array([p.true_error for p in curve])
        return {
            "err_ratio": float(errors[idx] / errors.min()),
            "finite_share": float(np.mean(np.isfinite(bounds))),
        }


# ---------------------------------------------------------------------------
# schedule


class Schedule(Workload):
    """Clean reconstruction of the three problem families."""

    name = "schedule"
    N = 16384
    ALT_N = 4 * N
    ALT_REPS = 3
    CHECKPOINTS = (10, 100, 1000, 10**4, 10**5, 10**6, 10**9)
    STEPS = (10, 100, STEPWISE_STEPS)
    FAMILIES = ("elliptic", "hyperbolic", "parabolic")

    def __init__(self, seed, n, scratch, call):
        super().__init__(seed, n, scratch, call)
        self.model = call("spectral.make_sine_spectrum_1d", make_sine_spectrum_1d, n, 1.0)
        lam = self.lam = np.array(self.model.eigenvalues)
        self.T = {
            "elliptic": 100.0 / lam[-1],
            "hyperbolic": 1.0 / math.pi,  # lambda_j T = j stays off the resonances j = m pi
            "parabolic": 600.0 / lam[-1] ** 2,
        }
        self.sech_e = sech(lam * self.T["elliptic"])
        self.decay_p = np.exp(-lam * lam * self.T["parabolic"])
        self.closed = call("iterations.IterationSchedule", IterationSchedule, checkpoints=self.CHECKPOINTS)
        self.stepwise = call(
            "iterations.IterationSchedule", IterationSchedule, checkpoints=self.STEPS, mode="stepwise"
        )

    def draw(self, i):
        rng = rng_for(self.seed, i)
        lam = self.lam
        trace = rng.standard_normal(self.n) / (1.0 + lam**2)
        h_f = rng.standard_normal(self.n) / lam**2
        h_g = rng.standard_normal(self.n) / lam**2
        u0 = rng.standard_normal(self.n) / lam
        x = lam * self.T["hyperbolic"]
        return {
            "elliptic": (self.sech_e * trace, trace),
            "hyperbolic": (h_f, h_g, lam * (h_g - np.cos(x) * h_f) / np.sin(x)),
            "parabolic": (self.decay_p * u0, u0),
        }

    def op(self, x, call):
        m = self.model
        out = {}
        for fam in self.FAMILIES:
            T = self.T[fam]
            if fam == "elliptic":
                f = call("spectral.zeros", zeros, m)
                g = call("spectral.from_coeffs", from_coeffs, m, x[fam][0])
                spec = call("problems.Elliptic", Elliptic, T=T, f=f, g=g)
                ref = call("problems.elliptic_dt_solution_at", elliptic_dt_solution_at, spec, T)
            elif fam == "hyperbolic":
                f = call("spectral.from_coeffs", from_coeffs, m, x[fam][0])
                g = call("spectral.from_coeffs", from_coeffs, m, x[fam][1])
                spec = call("problems.Hyperbolic", Hyperbolic, T=T, f=f, g=g)
                ref = call("problems.hyperbolic_solution_dt0", hyperbolic_solution_dt0, spec)
            else:
                f = call("spectral.from_coeffs", from_coeffs, m, x[fam][0])
                spec = call("problems.Parabolic", Parabolic, T=T, f=f, gamma=1.0)
                ref = call("problems.parabolic_backward_trace", parabolic_backward_trace, spec)
            fac = call("iterations.build_factors", build_factors, spec)
            phi0 = call("spectral.zeros", zeros, m)
            closed = call("iterations.report_closed_form", report_closed_form, fac, phi0, self.closed, ref)
            steps = call("iterations.iterate_stepwise", iterate_stepwise, fac, phi0, self.stepwise, ref)
            fp = call("iterations.fixed_point", fixed_point, fac)
            text = call("bench.render_report.csv", render_report, closed, "csv")
            out[fam] = (ref, fac, closed, steps, fp, text)
        return out

    def check(self, x, out):
        for fam in self.FAMILIES:
            ref, fac, closed, steps, fp, text = out[fam]
            require_close(f"{fam} reference vs drawn trace", ref.coeffs, x[fam][-1])
            require_close(f"{fam} fixed point vs reference", fp.coeffs, ref.coeffs)
            comp, z = fac.complements, fac.z.coeffs
            by_k = {r.k: r.iterate.coeffs for r in closed.records}
            require([r.k for r in closed.records] == list(self.CHECKPOINTS), f"{fam} closed-form checkpoints")
            require([r.k for r in steps.records] == list(self.STEPS), f"{fam} stepwise checkpoints")
            for rec in steps.records:
                if rec.k in by_k:
                    require_close(f"{fam} stepwise vs closed form at k={rec.k}", rec.iterate.coeffs, by_k[rec.k])
            # phi_k = (1 - F^k) / (1 - F) z from phi_0 = 0, with F = 1 - comp >= 0 here
            for rec in (*closed.records, *steps.records):
                want = -np.expm1(rec.k * np.log1p(-comp)) / comp * z
                require_close(f"{fam} iterate at k={rec.k}", rec.iterate.coeffs, want)
            lines = text.splitlines()
            require(lines[0] == "k,rel_error,successive_diff,residual", f"{fam} csv header")
            require([int(r[0]) for r in csv.reader(lines[1:])] == list(self.CHECKPOINTS), f"{fam} csv rows")
        return {}


# ---------------------------------------------------------------------------
# io


class Io(Workload):
    """Grid CSV ingestion, report round trip and grid rendering."""

    name = "io"
    N = 1024
    ALT_N = N // 4
    ALT_REPS = 3
    CHECKPOINTS = (10, 100, 1000)

    def __init__(self, seed, n, scratch, call):
        super().__init__(seed, n, scratch, call)
        self.model = call("spectral.make_sine_spectrum_1d", make_sine_spectrum_1d, n, 1.0)
        lam = np.array(self.model.eigenvalues)
        self.T = 100.0 / lam[-1]
        self.schedule = call("iterations.IterationSchedule", IterationSchedule, checkpoints=self.CHECKPOINTS)
        rng = rng_for(seed, n)
        x = np.linspace(0.0, 1.0, 4 * n + 1)
        basis = math.sqrt(2.0) * np.sin(np.outer(x, lam))
        self.coeffs = {}
        self.paths = {}
        for name in ("f", "g"):
            c = sech(lam * self.T) * rng.standard_normal(n) / (1.0 + lam**2)
            values = basis @ c
            values[0] = values[-1] = 0.0  # sin(j pi) is zero, up to rounding
            path = os.path.join(scratch, f"{name}-{n}.csv")
            with open(path, "w") as fh:
                fh.write("x,value\n")
                fh.writelines(f"{a!r},{v!r}\n" for a, v in zip(x.tolist(), values.tolist()))
            self.coeffs[name], self.paths[name] = c, path

    def draw(self, i):
        # New names per op: replacing an existing file on ext4 flushes its
        # data at close or rename (auto_da_alloc), which would time the disk
        # rather than kmiter.  check() removes the files again.
        return {
            "grid": os.path.join(self.scratch, f"grid-{self.n}-{i}.csv"),
            "report": os.path.join(self.scratch, f"report-{self.n}-{i}.json"),
        }

    def op(self, x, call):
        m, T = self.model, self.T
        data = {}
        for name in ("f", "g"):
            gf = call("gridio.read_grid_csv", read_grid_csv, self.paths[name])
            data[name] = call("gridio.ingest_grid", ingest_grid, gf, m)
        spec = call("problems.Elliptic", Elliptic, T=T, f=data["f"], g=data["g"])
        ref = call("problems.elliptic_dt_solution_at", elliptic_dt_solution_at, spec, T)
        fac = call("iterations.build_factors", build_factors, spec)
        phi0 = call("spectral.zeros", zeros, m)
        report = call("iterations.report_closed_form", report_closed_form, fac, phi0, self.schedule, ref)
        text = call("bench.render_report.json", render_report, report, "json")
        back = call("bench.report_from_dict", report_from_dict, json.loads(text))
        grid = call("gridio.render_grid", render_grid, report.records[-1].iterate)
        call("gridio.write_grid_csv", write_grid_csv, grid, x["grid"])
        call("bench.atomic_write_text", atomic_write_text, x["report"], text)
        return {"data": data, "report": report, "text": text, "back": back, "grid": grid}

    def check(self, x, out):
        for name in ("f", "g"):
            require_close(f"ingested {name}", out["data"][name].coeffs, self.coeffs[name])
        report, back = out["report"], out["back"]
        require(
            (report.kind, report.scale, report.final_k, report.termination_reason)
            == (back.kind, back.scale, back.final_k, back.termination_reason),
            "json round trip: report fields",
        )
        require(len(report.records) == len(back.records), "json round trip: record count")
        for a, b in zip(report.records, back.records):
            require(
                (a.k, a.successive_diff, a.residual, a.error_vs_reference)
                == (b.k, b.successive_diff, b.residual, b.error_vs_reference)
                and a.iterate == b.iterate,
                f"json round trip: record k={a.k}",
            )
        table = np.loadtxt(x["grid"], delimiter=",", skiprows=1)
        grid = out["grid"]
        require(
            np.array_equal(table[:, 0], grid.axes[0]) and np.array_equal(table[:, 1], grid.values),
            "written grid does not read back equal",
        )
        with open(x["report"]) as fh:
            require(fh.read() == out["text"], "written report differs from the rendered one")
        for path in x.values():
            os.unlink(path)
        return {}


# ---------------------------------------------------------------------------
# cli


class Cli(Workload):
    """One ``python -m kmiter <sub> --format <fmt>`` process per op."""

    name = "cli"
    SUBCOMMANDS = ("elliptic", "hyperbolic", "parabolic", "table2", "table1", "regularize", "demo-illposed")
    FORMATS = ("csv", "json", "markdown")
    MAIN_ROUNDS = 2

    def __init__(self, seed, n, scratch, call):
        super().__init__(seed, n, scratch, call)
        self.argvs = [(sub, "--format", fmt) for sub in self.SUBCOMMANDS for fmt in self.FORMATS]
        self.first: dict[tuple, bytes] = {}

    def draw(self, i):
        # each cycle runs every argv once, in an order drawn from the seed
        cycle, pos = divmod(i, len(self.argvs))
        return self.argvs[rng_for(self.seed, cycle).permutation(len(self.argvs))[pos]]

    def op(self, argv, call):
        cmd = [sys.executable, "-m", "kmiter", *argv]
        try:
            return call("cli.subprocess", subprocess.run, cmd, capture_output=True, timeout=120)
        except subprocess.TimeoutExpired as exc:
            raise CheckFailed(f"{' '.join(argv)}: timed out") from exc

    def check(self, argv, proc):
        what = " ".join(argv)
        require(proc.returncode == 0, f"{what}: exit code {proc.returncode}: {proc.stderr[-300:]!r}")
        text = proc.stdout.decode()
        fmt = argv[-1]
        if fmt == "json":
            try:
                json.loads(text)
            except ValueError as exc:
                raise CheckFailed(f"{what}: output is not JSON: {exc}") from None
        elif fmt == "csv":
            rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
            require(len(rows) >= 2 and all(len(r) == len(rows[0]) for r in rows), f"{what}: ragged csv")
        else:
            require(any(line.startswith("| ") for line in text.splitlines()), f"{what}: no markdown table")
        require(self.first.setdefault(argv, proc.stdout) == proc.stdout, f"{what}: output changed between runs")
        return {}

    def extra(self, tracer):
        """In-process ``kmiter.cli.main`` per subcommand, stdout captured."""
        from kmiter.cli import main

        for _ in range(self.MAIN_ROUNDS):
            for sub, flag, fmt in self.argvs:
                tracer.begin_op(f"cli.main {sub} {fmt}", "extra")
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = tracer.call(f"cli.main.{sub}", main, [sub, flag, fmt])
                tracer.end_op()
                require(rc == 0, f"in-process main {sub} {fmt}: exit code {rc}")


WORKLOADS = {cls.name: cls for cls in (Cutoff, Schedule, Io, Cli)}
