"""Recover an initial temperature from a later snapshot, two ways to fail.

The backward heat problem is solved by a relaxed fixed-point sweep whose
per-mode factor is 1 - gamma exp(-lambda^2 T).  Two things are worth seeing
numerically.  First, a larger diffusivity makes the problem easier, not
harder: the factors sit further from 1 so the error decays faster.  Second,
the relaxation weight gamma must stay at or below 1 for the convergence
proof to hold; at gamma = 2 the iteration map stops satisfying the energy
inequality on slow modes even though it is still non-expansive.
"""

import math

from kmiter import (
    Parabolic,
    build_factors,
    check_operator_conditions,
    make_sine_spectrum_1d,
    render_table,
    run_decay_table,
    unit_mode,
)


def main():
    print("relative error when recovering u(0) from u(T), T = 1/16, gamma = 2")
    print()
    print(render_table(run_decay_table(), "markdown"))
    print()
    print("The a^2 = 8 row sits below the a^2 = 2 row at every checkpoint:")
    print("faster diffusion pushes every factor away from 1.")
    print()

    model = make_sine_spectrum_1d(8, 1.0)
    e1 = unit_mode(model, 1)
    for gamma in (0.5, 1.0, 2.0):
        fac = build_factors(Parabolic(T=0.0625, f=e1, gamma=gamma))
        rep = check_operator_conditions(fac, 1.0)
        lo = float(fac.factors.min())
        verdict = "holds" if rep.condition1_holds else "FAILS"
        print(
            f"gamma = {gamma:<4g} lowest factor {lo:+.4f}  "
            f"energy inequality {verdict}"
            f" (violation {max(rep.condition1_violation, 0.0):.3f},"
            f" non-expansive: {rep.nonexpansive})"
        )
    print()
    print("At gamma = 2 and this short horizon the first factor is")
    print(f"1 - 2 exp(-pi^2/16) = {1 - 2 * math.exp(-math.pi**2 / 16):+.4f},")
    print("negative enough that the sweep overshoots the fixed point on that")
    print("mode. Convergence still happens here because |factor| < 1, but")
    print("the monotone energy argument is gone, and with it any guarantee")
    print("for operators that are not diagonal in this basis.")


if __name__ == "__main__":
    main()
