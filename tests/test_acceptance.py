"""Acceptance gate: one test per shipped guarantee, one line per verdict.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` for the explicit
PASS lines).  Each test checks a numbered guarantee end to end at its stated
tolerance and, where one is stated, asserts the runtime budget.  Expected
values come either from live mpmath evaluations at 50 digits or from the
frozen constants in oracles.py; nothing is compared against the code under
test itself.
"""

import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

from kmiter import (
    Elliptic,
    Hyperbolic,
    IterationSchedule,
    NoiseSpec,
    Parabolic,
    RegularizerPlan,
    ResonanceError,
    SourceCondition,
    StoppingRule,
    add_noise,
    build_factors,
    check_operator_conditions,
    choose_h,
    default_scale,
    elliptic_dt_solution_at,
    error_bound_curve,
    fixed_point,
    from_coeffs,
    hyperbolic_solution_dt0,
    ingest_grid,
    iterate_closed_form,
    iterate_stepwise,
    load_config,
    make_custom_spectrum,
    make_sine_spectrum_1d,
    measure_eps_prime,
    norm_s,
    parabolic_backward_trace,
    render_grid,
    report_closed_form,
    run_convergence_table,
    run_decay_table,
    run_experiment,
    scale_weights,
    select_n_star,
    smooth,
    source_constant,
    synth_data,
    unit_mode,
    zeros,
)
from kmiter.bench import CONVERGENCE_CHECKPOINTS, report_from_dict, report_to_dict

import oracles

mp.mp.dps = 50


def _passed(n, msg):
    print(f"criterion {n}: PASS - {msg}")


# ---------------------------------------------------------------------------
# 1. per-mode contraction factors vs high-precision scalars


def test_criterion_1_contraction_factors():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314159)
    for _ in range(50):
        lam = float(rng.uniform(0.3, 40.0))
        T = float(rng.uniform(0.05, 3.0))
        gamma = float(rng.uniform(0.05, 1.95))
        single = make_custom_spectrum([lam])
        z = zeros(single)

        got = build_factors(Elliptic(T=T, f=z, g=z)).factors[0]
        want = float(mp.tanh(lam * T) ** 2)
        assert abs(got - want) <= 1e-12 * want

        try:
            got = build_factors(Hyperbolic(T=T, f=z, g=z)).factors[0]
            want = float(mp.cos(lam * T) ** 2)
            assert abs(got - want) <= 1e-12 * want
        except ResonanceError:
            pass  # phase landed on a root of sin; the builder refuses, fine

        # separate lambda draw keeps lambda^2 T far from exp underflow
        lam_p = float(rng.uniform(0.3, 10.0))
        T_p = float(rng.uniform(0.05, 3.0))
        single_p = make_custom_spectrum([lam_p])
        got = build_factors(Parabolic(T=T_p, f=zeros(single_p), gamma=gamma)).factors[0]
        want = float(1 - gamma * mp.e ** (-(lam_p**2) * T_p))
        assert abs(got - want) <= 1e-12 * abs(want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(1, f"50 sampled factors match mpmath to rel 1e-12 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. elliptic per-mode rate table


def test_criterion_2_elliptic_rate_table():
    t0 = time.perf_counter()
    table = run_convergence_table()

    # every cell equals tanh(k pi)^(2m); the 1e-14 absolute floor covers
    # cells that sit at the float rounding floor of the reference trace
    for row, k in zip(table.errors, (1, 2, 3)):
        for err, m_steps in zip(row, CONVERGENCE_CHECKPOINTS):
            want = float(mp.tanh(k * mp.pi) ** (2 * m_steps))
            assert abs(err - want) <= 1e-8 * want + 1e-14, (k, m_steps)

    by_cp = dict(zip(table.checkpoints, zip(*table.errors)))
    e1_at_100 = by_cp[100][0]
    assert abs(e1_at_100 - 0.4738) <= 0.02
    assert by_cp[1000][0] <= 1e-3
    for col in by_cp.values():
        assert col[0] <= col[1] <= col[2]

    # stepwise agrees with the closed form at m = 1e3 on each mode
    model = make_sine_spectrum_1d(3, 1.0)
    for k in (1, 2, 3):
        spec = Elliptic(T=1.0, f=zeros(model), g=unit_mode(model, k))
        fac = build_factors(spec)
        ref = elliptic_dt_solution_at(spec, 1.0)
        sched_sw = IterationSchedule(checkpoints=(1000,), mode="stepwise")
        sched_cf = IterationSchedule(checkpoints=(1000,))
        sw = iterate_stepwise(fac, zeros(model), sched_sw, reference=ref)
        cf = report_closed_form(fac, zeros(model), sched_cf, reference=ref)
        a = sw.records[-1].error_vs_reference
        b = cf.records[-1].error_vs_reference
        assert abs(a - b) <= 1e-8 * b
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(2, f"rate table matches tanh(k pi)^(2m) and orderings in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. convergence to the oracle traces on random instances


def _random_instance(kind, rng):
    n = int(rng.integers(2, 65))
    model = make_sine_spectrum_1d(n, 1.0)
    f = from_coeffs(model, rng.standard_normal(n))
    if kind == "elliptic":
        spec = Elliptic(
            T=float(rng.uniform(0.05, 0.6)),
            f=f,
            g=from_coeffs(model, rng.standard_normal(n)),
        )
        return model, spec, elliptic_dt_solution_at(spec, spec.T)
    if kind == "hyperbolic":
        while True:
            spec = Hyperbolic(
                T=float(rng.uniform(0.05, 0.9)),
                f=f,
                g=from_coeffs(model, rng.standard_normal(n)),
            )
            try:
                build_factors(spec)
            except ResonanceError:
                continue
            return model, spec, hyperbolic_solution_dt0(spec)
    lam_max = model.eigenvalues[-1]
    spec = Parabolic(
        T=float(rng.uniform(0.1, 20.0)) / lam_max**2,
        f=f,
        gamma=float(rng.uniform(0.1, 1.9)),
    )
    return model, spec, parabolic_backward_trace(spec)


def test_criterion_3_convergence_to_oracle_traces():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for kind in ("elliptic", "hyperbolic", "parabolic"):
        for _ in range(100):
            model, spec, trace = _random_instance(kind, rng)
            fac = build_factors(spec)
            phi0 = from_coeffs(model, rng.standard_normal(model.n_modes))
            k = int(rng.integers(1, 50))

            # per-mode error formula |F_j|^k |phibar_j - phi0_j|, with an
            # absolute floor at the rounding level of the oracle trace
            it = iterate_closed_form(fac, phi0, k)
            err = np.abs(it.coeffs - trace.coeffs)
            formula = np.abs(fac.factors) ** k * np.abs(trace.coeffs - phi0.coeffs)
            slack = 1e-10 * formula + 1e-13 * np.abs(trace.coeffs)
            assert np.all(np.abs(err - formula) <= slack), (kind, spec.T)

            # norm error decreases along the step count
            rep = report_closed_form(
                fac,
                phi0,
                IterationSchedule(checkpoints=(1, 10, 10**3, 10**5)),
                reference=trace,
            )
            errs = [r.error_vs_reference for r in rep.records]
            for earlier, later in zip(errs, errs[1:]):
                assert later <= earlier * (1.0 + 1e-12) + 1e-15

    # converse: every tolerance-terminated run has residual <= tol (1+max|F|)
    for i in range(60):
        n = int(rng.integers(2, 9))
        model = make_sine_spectrum_1d(n, 1.0)
        kind = ("elliptic", "hyperbolic", "parabolic")[i % 3]
        if kind == "elliptic":
            spec = Elliptic(
                T=float(rng.uniform(0.05, 0.12)),
                f=from_coeffs(model, rng.standard_normal(n)),
                g=from_coeffs(model, rng.standard_normal(n)),
            )
        elif kind == "hyperbolic":
            spec = Hyperbolic(
                T=1.0 / math.pi,
                f=from_coeffs(model, rng.standard_normal(n)),
                g=from_coeffs(model, rng.standard_normal(n)),
            )
        else:
            spec = Parabolic(
                T=float(rng.uniform(0.5, 3.0)) / model.eigenvalues[-1] ** 2,
                f=from_coeffs(model, rng.standard_normal(n)),
                gamma=float(rng.uniform(0.5, 1.9)),
            )
        fac = build_factors(spec)
        tol = 10.0 ** rng.uniform(-7, -4)
        rep = iterate_stepwise(
            fac,
            zeros(model),
            IterationSchedule(
                checkpoints=(10**5,),
                mode="stepwise",
                stop=StoppingRule(max_steps=10**5, successive_diff_tol=tol),
            ),
        )
        if rep.termination_reason == "tolerance":
            bound = tol * (1.0 + float(np.max(np.abs(fac.factors))))
            assert rep.records[-1].residual <= bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(3, f"300 random instances track the traces per mode in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. energy inequalities, non-expansivity, asymptotic regularity


def test_criterion_4_operator_energy_conditions():
    rng = np.random.default_rng(7)
    model = make_sine_spectrum_1d(48, 1.0)
    samples = []
    for _ in range(1000):
        x = rng.standard_normal(48)
        samples.append(from_coeffs(model, x / np.linalg.norm(x)))

    ell = build_factors(Elliptic(T=1.0, f=zeros(model), g=zeros(model)))
    hyp = build_factors(Hyperbolic(T=1.0 / math.pi, f=zeros(model), g=zeros(model)))
    for fac in (ell, hyp):
        rep = check_operator_conditions(fac, 1.0)
        assert rep.condition1_holds
        assert rep.condition2_holds
        assert rep.nonexpansive
        assert rep.max_violation <= 0.0  # sign-exact per mode at c = 1
        assert float(np.max(np.abs(fac.factors))) <= 1.0

        # the exact checks are suprema: the samples, at unit norm in the
        # iteration space, never read worse
        s = default_scale(fac.kind)
        unit = [(1.0 / norm_s(x, s)) * x for x in samples]
        sampled = oracles.condition_violations(fac, unit, 1.0, s)
        exact = (rep.condition1_violation, rep.condition2_violation, rep.nonexpansive_violation)
        assert all(v <= e + 1e-12 for v, e in zip(sampled[:3], exact))

        # conditions (1) and (2) are two spellings of one inequality:
        # viol1 = 2 c viol2 identically (checked sample by sample at c=1)
        w = scale_weights(model, s)
        for x in samples[:200]:
            xc = x.coeffs
            n2 = float(np.dot(w, xc * xc))
            Tn2 = float(np.dot(w, (fac.factors * xc) ** 2))
            dx = fac.complements * xc
            d2 = float(np.dot(w, dx * dx))
            ip = float(np.dot(w, dx * xc))
            viol1 = d2 - (n2 - Tn2)
            viol2 = d2 - ip
            assert abs(viol1 - 2.0 * viol2) <= 1e-9 * abs(viol1) + 1e-13

    # the hyperbolic supremum sits at mode 11, where 22 is nearest 7 pi:
    # -sin(22)^2 / 2 = -3.917e-5, far above what the samples reach
    rep = check_operator_conditions(hyp, 1.0)
    assert rep.condition1_violation == pytest.approx(-3.917e-5, rel=1e-3)
    assert rep.worst_mode == 10

    # asymptotic regularity on mass where the factor stays below 0.999
    big = make_sine_spectrum_1d(64, 1.0)
    for fac in (
        build_factors(Elliptic(T=0.2, f=zeros(big), g=zeros(big))),
        build_factors(Hyperbolic(T=1.0 / math.pi, f=zeros(big), g=zeros(big))),
    ):
        eligible = fac.factors < 0.999
        assert eligible.any()
        for _ in range(20):
            x = from_coeffs(big, rng.standard_normal(64) * eligible)
            rep = report_closed_form(
                fac, x, IterationSchedule(checkpoints=(10, 10**4))
            )
            d10 = rep.records[0].successive_diff
            d1e4 = rep.records[1].successive_diff
            assert d1e4 <= 1e-3 * d10

    # a relaxation weight above the strict bound breaks condition (1) on a
    # unit mode with a negative factor, while staying non-expansive
    small = make_sine_spectrum_1d(8, 1.0)
    fac = build_factors(Parabolic(T=0.0625, f=unit_mode(small, 1), gamma=2.0))
    assert fac.factors[0] < 0.0
    rep = check_operator_conditions(fac, 1.0)
    assert not rep.condition1_holds
    assert rep.condition1_violation == pytest.approx(0.17114, rel=1e-4)
    assert rep.worst_mode == 0
    assert rep.nonexpansive
    _passed(4, "energy conditions, regularity and the gamma=2 counterexample hold")


# ---------------------------------------------------------------------------
# 5. smoothing error bound for the explicit width choice


def test_criterion_5_smoothing_bound():
    t0 = time.perf_counter()
    n = 64
    model = make_sine_spectrum_1d(n, 1.0)
    lam = model.eigenvalues
    j = np.arange(1, n + 1, dtype=float)
    f = from_coeffs(model, (1.0 + lam**2) ** -1.0 / j)
    f = (1.0 / norm_s(f, 1.0)) * f
    assert abs(norm_s(f, 1.0) - 1.0) < 1e-12

    r, s = 1.0, 0.5
    for eps_sq in (1e-2, 1e-4, 1e-6):
        h = choose_h(eps_sq, r, 1.0)
        bound = 4.0 * eps_sq ** ((r - s) / r)
        for seed in range(100):
            f_eps = add_noise(f, NoiseSpec(eps=math.sqrt(eps_sq), seed=seed))
            err_sq = norm_s(f - smooth(f_eps, h), s) ** 2
            assert err_sq <= bound, (eps_sq, seed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(5, f"300 draws stay under 4 eps^(1/2) in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 6. cutoff error bound and the a-priori cutoff choice


def test_criterion_6_cutoff_bound_and_selection():
    t0 = time.perf_counter()
    n, T, s = 40, 1.0, -0.5
    lam = 1.0 + 0.2 * np.arange(1, n + 1)
    model = make_custom_spectrum(lam)

    def G(x):
        return np.sqrt(1.0 + np.asarray(x) ** 2)

    # known target with summable source coefficients, then data built to
    # reproduce it exactly: with f = 0 the affine term is sech^2 phibar,
    # so g = sech(lam T) phibar
    j = np.arange(1, n + 1, dtype=float)
    phibar = from_coeffs(model, 1.0 / (j * G(lam)))
    g = from_coeffs(model, phibar.coeffs / np.cosh(lam * T))
    f = zeros(model)
    clean = build_factors(Elliptic(T=T, f=f, g=g))
    np.testing.assert_allclose(
        fixed_point(clean).coeffs, phibar.coeffs, rtol=1e-12
    )

    source = SourceCondition(M=source_constant(phibar, G, s), G=G, s=s)
    eps = 1e-3
    for seed in range(10):
        half = eps / math.sqrt(2.0)
        noisy = build_factors(
            Elliptic(
                T=T,
                f=add_noise(f, NoiseSpec(eps=half, seed=seed)),
                g=add_noise(g, NoiseSpec(eps=half, seed=seed + 1)),
            )
        )
        eps_prime = measure_eps_prime(clean, noisy, s)
        assert eps_prime > 0.0
        plan = RegularizerPlan(n=float(lam[0]), eps_prime=eps_prime, source=source)

        curve = error_bound_curve(plan, noisy, phibar_reference=phibar)
        measured = np.array([p.true_error for p in curve])
        bounds = np.array([p.bound for p in curve])
        assert np.all(measured <= bounds * (1.0 + 1e-12) + 1e-15)
        assert bounds.min() < bounds[0] and bounds.min() < bounds[-1]

        sel = select_n_star(plan, noisy)
        assert measured[sel.index] <= 3.0 * measured.min()
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(6, f"bound envelopes the error, selection within x3 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 7. backward-heat decay orderings


def test_criterion_7_backward_heat_orderings():
    table = run_decay_table()  # gamma = 2, T = 0.0625, a^2 in {8, 2}
    fast, slow = table.errors
    for row in (fast, slow):
        for earlier, later in zip(row, row[1:]):
            assert later < earlier
    for f_err, s_err in zip(fast, slow):
        assert f_err < s_err
    _passed(7, "errors decline with steps and a^2=8 dominates a^2=2 throughout")


# ---------------------------------------------------------------------------
# 8. determinism and round trips


def test_criterion_8_determinism_and_round_trips(tmp_path):
    cfg = {
        "problem": {
            "kind": "elliptic",
            "T": 1.0,
            "f": {"generator": "zero"},
            "g": {"generator": "piecewise_profile"},
        },
        "spectrum": {"basis": "sine1d", "n_modes": 16, "length": 1.0},
        "schedule": {"checkpoints": [10, 100, 1000]},
        "noise": {"eps": 1e-3, "seed": 9},
    }
    blobs = {}
    for fmt in ("csv", "json"):
        for run in ("a", "b"):
            path = tmp_path / f"{fmt}-{run}"
            run_experiment(
                load_config(
                    {**cfg, "output": {"format": fmt, "path": str(path)}}
                )
            )
            blobs[(fmt, run)] = path.read_bytes()
        assert blobs[(fmt, "a")] == blobs[(fmt, "b")]

    model = make_sine_spectrum_1d(8, 1.0)
    rng = np.random.default_rng(0)
    vecs = [synth_data("piecewise_profile", model)]
    vecs += [from_coeffs(model, rng.uniform(-5, 5, 8)) for _ in range(10)]
    for v in vecs:
        back = ingest_grid(render_grid(v), model)
        assert np.max(np.abs(back.coeffs - v.coeffs)) <= 1e-4

    report = run_experiment(load_config(cfg)).report
    wire = json.loads(json.dumps(report_to_dict(report)))
    assert report_from_dict(wire) == report
    _passed(8, "byte-identical reruns, grid and JSON round trips intact")
