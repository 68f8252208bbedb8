"""kmiter benchmark: one workload, one process, one closed-loop caller.

Run from the root of a kmiter checkout (the package is imported from
``./src``)::

    python3 perfbench/run.py --workload cutoff --seed 1 --seconds 30 --trace 0

Workloads: ``cutoff``, ``schedule``, ``io``, ``cli`` (see ``workloads.py``).
The run draws its inputs from ``--seed``, loops ops for ``--seconds``
seconds, checks every op against an independent reference and prints, as
its last stdout line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give each
metric with its unit and sample count, and the run stamp.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over fresh processes of the time from process start
  to the point where the first op could start (interpreter, imports, model
  build, input generation).
* ``ops_per_s``: ops that succeeded per second of timed op time.
* ``op_p50_ms``, ``op_p90_ms``: nearest-rank percentiles of op latency; a
  failed op counts as +inf.
* ``ok_share``: ops that succeeded / ops attempted.  An op fails when it
  raises a ``KmiterError``, exits non-zero or fails its check.
* ``peak_rss_mb``: ``ru_maxrss`` of this process; of its children for
  ``cli``.
* ``cutoff_err_ratio``: mean over the first 100 ops of (measured error at
  the selected n*) / (best measured error on the candidate grid).  The ops
  are fixed by the seed, so the figure does not depend on speed.  It is 1.0
  on workloads that select no cutoff: no accuracy is lost to a choice that
  is not made.

``--trace 1`` alternates untraced and traced ops and prints the per-layer
metrics (``PER_LAYER``): ``<layer>.ms`` is the median over traced ops of
the self time spent in that layer per op (set-up for the model builder,
per call for ``cli.*``), ``.peak_mb`` the median ``tracemalloc`` peak of a
call above its starting allocation (from one op run under ``tracemalloc``
after the loop, whose times are not used), ``.scale4x`` the per-op time at the
larger of the two sizes over the time at the smaller (4N over N for
``cutoff`` and ``schedule``, N over N/4 for ``io``).  A layer the workload
never calls reads 0.  The spans and both sizes' times are written to
``.perfbench_out/`` in the checkout.

A run outside a kmiter checkout exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "cutoff_err_ratio": "ratio",
}

PER_LAYER = {
    "regularization.error_bound_curve.ms": "ms",
    "regularization.error_bound_curve.scale4x": "ratio",
    "regularization.error_bound_curve.peak_mb": "MB",
    "regularization.error_bound_curve.finite_share": "ratio",
    "regularization.select_n_star.ms": "ms",
    "regularization.select_n_star.scale4x": "ratio",
    "regularization.runtime_warnings": "count",
    "regularization.add_noise.ms": "ms",
    "regularization.measure_eps_prime.ms": "ms",
    "regularization.source_constant.ms": "ms",
    "regularization.regularized_fixed_point.ms": "ms",
    "problems.elliptic_dt_solution_at.ms": "ms",
    "problems.hyperbolic_solution_dt0.ms": "ms",
    "problems.parabolic_backward_trace.ms": "ms",
    "iterations.build_factors.ms": "ms",
    "iterations.build_factors.scale4x": "ratio",
    "iterations.fixed_point.ms": "ms",
    "iterations.report_closed_form.ms": "ms",
    "iterations.report_closed_form.scale4x": "ratio",
    "iterations.report_closed_form.peak_mb": "MB",
    "iterations.iterate_stepwise.us_per_step": "us",
    "iterations.iterate_stepwise.scale4x": "ratio",
    "spectral.make_sine_spectrum_1d.ms": "ms",
    "gridio.read_grid_csv.ms": "ms",
    "gridio.write_grid_csv.ms": "ms",
    "gridio.ingest_grid.ms": "ms",
    "gridio.ingest_grid.scale4x": "ratio",
    "gridio.ingest_grid.peak_mb": "MB",
    "gridio.render_grid.ms": "ms",
    "gridio.render_grid.scale4x": "ratio",
    "gridio.render_grid.peak_mb": "MB",
    "bench.render_report.csv.ms": "ms",
    "bench.render_report.json.ms": "ms",
    "bench.report_from_dict.ms": "ms",
    "bench.atomic_write_text.ms": "ms",
    "cli.python_startup.ms": "ms",
    "cli.import_numpy.ms": "ms",
    "cli.import_kmiter.ms": "ms",
    **{
        f"cli.main.{sub}.ms": "ms"
        for sub in ("elliptic", "hyperbolic", "parabolic", "table2", "table1", "regularize", "demo-illposed")
    },
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

BLAS_THREADS = 1
SETUP_PROBES = 5
BASELINE_ROUNDS = 5
ERR_RATIO_OPS = 100
BASELINES = {
    "cli.python_startup": "pass",
    "cli.import_numpy": "import numpy",
    "cli.import_kmiter": "import kmiter",
}
OUT_DIR = ".perfbench_out"


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile; returns (value, samples above it)."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_stamp(seed: int, nproc: int) -> dict:
    import numpy as np
    import kmiter

    sha = "unavailable (not a git checkout)"
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join("src", "kmiter")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                digest.update(path.encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kmiter": kmiter.__version__,
        "nproc": nproc,
        "cpu": cpu_model(),
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
    }


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Start a fresh process that only sets up; time it until it is ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if rc != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {rc}")
    return elapsed


def run_loop(wl, seconds: float, tracer):
    """Closed loop for ``seconds``; with a tracer, every second op is traced."""
    from kmiter import KmiterError
    from tracer import direct
    from workloads import CheckFailed

    ops = []  # (seconds, ok, traced, quality)
    failures = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        x = wl.draw(i)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.begin_op(f"{wl.name}.op")
        start = time.perf_counter()
        error = None
        try:
            out = wl.op(x, tracer.call if traced else direct)
        except (KmiterError, CheckFailed) as exc:
            error = exc
        elapsed = time.perf_counter() - start
        if traced:
            tracer.end_op()
        quality = {}
        if error is None:
            try:
                quality = wl.check(x, out)
            except CheckFailed as exc:
                error = exc
        if error is not None:
            failures.append(f"op {i}: {type(error).__name__}: {str(error)[:300]}")
        ops.append((elapsed, error is None, traced, quality))
        i += 1
    return ops, failures


def end_to_end(ops, setup_samples, cls_name: str):
    lat = sorted(t if ok else math.inf for t, ok, _, _ in ops)
    n_ok = sum(ok for _, ok, _, _ in ops)
    p50, _ = percentile(lat, 0.5)
    p90, beyond = percentile(lat, 0.9)
    who = resource.RUSAGE_CHILDREN if cls_name == "cli" else resource.RUSAGE_SELF
    ratios = [q["err_ratio"] for _, ok, _, q in ops[:ERR_RATIO_OPS] if ok and "err_ratio" in q]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": n_ok / sum(t for t, _, _, _ in ops),
        "op_p50_ms": 1e3 * p50,
        "op_p90_ms": 1e3 * p90,
        "ok_share": n_ok / len(ops),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "cutoff_err_ratio": statistics.fmean(ratios) if ratios else 1.0,
    }
    samples = {
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "ops_per_s": f"{n_ok} of {len(ops)} ops",
        "op_p50_ms": f"{len(ops)} ops",
        "op_p90_ms": f"{len(ops)} ops, {beyond} above",
        "ok_share": f"{len(ops)} ops",
        "peak_rss_mb": "children" if cls_name == "cli" else "this process",
        "cutoff_err_ratio": f"{len(ratios)} ops" if ratios else "no cutoff selected",
    }
    return metrics, samples


def layer_metrics(wl, tracer, ops):
    """Per-layer metrics from the spans; 0 for layers the workload never calls.

    Returns the metrics, the sample count behind each, and the per-op
    times at both sizes behind each ``.scale4x``.
    """
    from workloads import STEPWISE_STEPS

    groups = {}
    for d, g in zip(tracer.spans_by_op(), tracer.op_groups):
        groups.setdefault(g, []).append(d)

    def per_op(layer, group, reduce=sum, attr="seconds"):
        return [reduce(getattr(s, attr) for s in d[layer]) for d in groups.get(group, []) if layer in d]

    def median_or_0(values):
        return statistics.median(values) if values else 0.0

    values = {}
    for name in PER_LAYER:
        layer, stat = name.rsplit(".", 1)
        if stat == "ms":
            home = next((g for g in ("op", "setup", "extra", "baseline") if per_op(layer, g)), "op")
            values[name] = [1e3 * t for t in per_op(layer, home)]
        elif stat == "peak_mb":
            values[name] = [b / 2**20 for b in per_op(layer, "memory", max, "peak_bytes")]
        elif stat == "us_per_step":
            values[name] = [1e6 * sum(s.seconds for s in d[layer]) / (len(d[layer]) * STEPWISE_STEPS)
                            for d in groups.get("op", []) if layer in d]
    values["regularization.error_bound_curve.finite_share"] = [
        q["finite_share"] for _, ok, _, q in ops if ok and "finite_share" in q
    ]
    values["regularization.runtime_warnings"] = [
        sum(s.runtime_warnings for layer, spans in d.items() if layer.startswith("regularization.")
            for s in spans)
        for d in groups.get("op", [])
    ]
    values["trace.coverage"] = tracer.coverage()
    out = {name: median_or_0(v) for name, v in values.items()}
    counts = {name: f"{len(v)} samples" for name, v in values.items()}

    scale_times = {}
    for name in PER_LAYER:
        layer, stat = name.rsplit(".", 1)
        if stat != "scale4x":
            continue
        main, alt = per_op(layer, "op"), per_op(layer, "scale")
        scale_times[layer] = {f"n={wl.N}_ms": 1e3 * median_or_0(main), f"n={wl.ALT_N}_ms": 1e3 * median_or_0(alt)}
        counts[name] = f"{len(main)} ops at n={wl.N}, {len(alt)} at n={wl.ALT_N}"
        if main and alt:
            big, small = (alt, main) if wl.ALT_N > wl.N else (main, alt)
            out[name] = median_or_0(big) / median_or_0(small)
        else:
            out[name] = 0.0
    traced = sorted(t if ok else math.inf for t, ok, tr, _ in ops if tr)
    plain = sorted(t if ok else math.inf for t, ok, tr, _ in ops if not tr)
    out["trace.overhead"] = percentile(traced, 0.5)[0] / percentile(plain, 0.5)[0]
    counts["trace.overhead"] = f"{len(traced)} traced / {len(plain)} untraced ops"
    return out, counts, scale_times


def traced_extras(wl, cls, seed: int, scratch: str, tracer):
    """Memory pass, second size for ``.scale4x``, interpreter baselines, extras."""
    x = wl.draw(0)
    tracer.begin_op(f"{cls.name}.op", "memory", memory=True)
    out = wl.op(x, tracer.call)
    tracer.end_op()
    wl.check(x, out)
    if cls.ALT_N is not None:
        tracer.begin_op(f"{cls.name}.setup n={cls.ALT_N}", "scale-setup")
        alt = cls(seed, cls.ALT_N, scratch, tracer.call)
        tracer.end_op()
        for r in range(cls.ALT_REPS):
            x = alt.draw(r)
            tracer.begin_op(f"{cls.name}.op n={cls.ALT_N}", "scale")
            out = alt.op(x, tracer.call)
            tracer.end_op()
            alt.check(x, out)
    for _ in range(BASELINE_ROUNDS):
        for layer, code in BASELINES.items():
            tracer.begin_op(layer, "baseline")
            # with pipes, run() returns when the child closes them at exit;
            # without, wait(timeout) polls with sleeps of up to 50 ms
            proc = tracer.call(layer, subprocess.run, [sys.executable, "-c", code],
                               capture_output=True, timeout=120)
            tracer.end_op()
            if proc.returncode != 0:
                raise RuntimeError(f"{layer}: exit code {proc.returncode}")
    wl.extra(tracer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["cutoff", "schedule", "io", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kmiter", "__init__.py")):
        print("perfbench: no kmiter source in ./src; run from the root of a kmiter checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread (at most nproc), set before numpy loads; children
    # inherit it.  With one caller, a BLAS pool only adds thread start-up to
    # every import and contention with the other tenants of a small machine.
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, src)

    import kmiter  # after the BLAS settings
    from tracer import direct
    from workloads import WORKLOADS

    if not os.path.realpath(kmiter.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"perfbench: imported kmiter from {kmiter.__file__}, not from ./src", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{cls.name}-", dir=OUT_DIR)
    try:
        if args.setup_probe:
            cls(args.seed, cls.N, scratch, direct)
            print("ready", flush=True)
            return 0
        return run(args, cls, scratch, nproc)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def check_manifest() -> None:
    """The metric names and units here must be those of BENCHMARK.json."""
    if not os.path.isfile("BENCHMARK.json"):
        return
    with open("BENCHMARK.json") as fh:
        doc = json.load(fh)
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if {m["name"]: m["unit"] for m in doc[key]} != ours:
            raise SystemExit(f"perfbench: BENCHMARK.json {key} does not match run.py")


def run(args, cls, scratch: str, nproc: int) -> int:
    from tracer import Tracer, direct

    check_manifest()
    stamp = run_stamp(args.seed, nproc)
    tracer = Tracer() if args.trace else None
    setup_samples = [] if tracer else [setup_probe_seconds(cls.name, args.seed) for _ in range(SETUP_PROBES)]
    if tracer:
        tracer.begin_op(f"{cls.name}.setup", "setup")
    wl = cls(args.seed, cls.N, scratch, tracer.call if tracer else direct)
    if tracer:
        tracer.end_op()

    ops, failures = run_loop(wl, args.seconds, tracer)
    for msg in failures[:10]:
        print(f"perfbench: failed {msg}", file=sys.stderr)

    if tracer:
        traced_extras(wl, cls, args.seed, scratch, tracer)
        metrics, samples, scale_times = layer_metrics(wl, tracer, ops)
        units = PER_LAYER
    else:
        metrics, samples = end_to_end(ops, setup_samples, cls.name)
        units, scale_times = END_TO_END, {}

    n_failed = sum(not ok for _, ok, _, _ in ops)
    result = {
        "correct": n_failed == 0,
        "attempted": len(ops),
        "failed": n_failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"workload": cls.name, "trace": args.trace, "stamp": stamp, "samples": samples,
              "setup_samples_s": setup_samples, "scale_times": scale_times, "result": result,
              "failures": failures}
    path = os.path.join(OUT_DIR, f"{cls.name}-seed{args.seed}-trace{args.trace}.json")
    if tracer:
        tracer.dump(path, record)
    else:
        with open(path, "w") as fh:
            json.dump(record, fh)

    print("# stamp " + json.dumps(stamp))
    for name in units:
        print(f"# {name} = {metrics[name]:.6g} {units[name]}  ({samples[name]})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
