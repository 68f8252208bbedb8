"""Experiment harness: config parsing, runs, tables, and report emission."""

import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kmiter import (
    CheckpointRecord,
    ConfigError,
    ExperimentConfig,
    IterationReport,
    Parabolic,
    build_factors,
    from_coeffs,
    load_config,
    make_custom_spectrum,
    make_sine_spectrum_1d,
    make_sine_spectrum_rect,
    measure_eps_prime,
    parabolic_backward_trace,
    render_report,
    render_table,
    run_convergence_table,
    run_cutoff_study,
    run_decay_table,
    run_experiment,
    synth_data,
    unit_mode,
)
from kmiter.bench import (
    CONVERGENCE_CHECKPOINTS,
    DECAY_CHECKPOINTS,
    TableResult,
    atomic_write_text,
    build_model,
    model_from_dict,
    model_to_dict,
    render_rows,
    report_from_dict,
    report_to_dict,
    resolve_source,
)
from kmiter.cli import EXIT_CONFIG, main

import oracles


def elliptic_mode_config(k=1, checkpoints=(100, 1000), **extra):
    """Single-mode elliptic run: f = 0, g = e_k on the unit interval."""
    cfg = {
        "problem": {
            "kind": "elliptic",
            "T": 1.0,
            "f": {"generator": "zero"},
            "g": {"generator": "unit_mode", "k": k},
        },
        "spectrum": {"basis": "sine1d", "n_modes": 3, "length": 1.0},
        "schedule": {"checkpoints": list(checkpoints)},
    }
    cfg.update(extra)
    return load_config(cfg)


class TestLoadConfig:
    def test_accepts_dict(self):
        cfg = elliptic_mode_config()
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.problem["kind"] == "elliptic"
        assert cfg.noise is None and cfg.output is None

    def test_accepts_file_path(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(
            json.dumps(
                {
                    "problem": {
                        "kind": "parabolic",
                        "T": 0.0625,
                        "f": {"coeffs": [1.0, 0.0]},
                    },
                    "spectrum": {"basis": "sine1d", "n_modes": 2},
                    "schedule": {"checkpoints": [10]},
                }
            )
        )
        cfg = load_config(path)
        assert cfg.problem["T"] == 0.0625

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_rejects_non_dict_non_path(self):
        with pytest.raises(ConfigError, match="path or a dict"):
            load_config([1, 2, 3])

    @pytest.mark.parametrize("section", ["problem", "spectrum", "schedule"])
    def test_missing_section(self, section):
        data = {
            "problem": {"kind": "parabolic", "T": 0.1, "f": {"generator": "zero"}},
            "spectrum": {"basis": "sine1d"},
            "schedule": {"checkpoints": [10]},
        }
        del data[section]
        with pytest.raises(ConfigError, match=section):
            load_config(data)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            load_config(
                {
                    "problem": {"kind": "biharmonic", "T": 1.0, "f": {"generator": "zero"}},
                    "spectrum": {"basis": "sine1d"},
                    "schedule": {"checkpoints": [10]},
                }
            )

    def test_second_order_kinds_require_g(self):
        for kind in ("elliptic", "hyperbolic"):
            with pytest.raises(ConfigError, match="'g'"):
                load_config(
                    {
                        "problem": {"kind": kind, "T": 1.0, "f": {"generator": "zero"}},
                        "spectrum": {"basis": "sine1d"},
                        "schedule": {"checkpoints": [10]},
                    }
                )

    def test_parabolic_needs_no_g(self):
        cfg = load_config(
            {
                "problem": {"kind": "parabolic", "T": 0.1, "f": {"generator": "zero"}},
                "spectrum": {"basis": "sine1d"},
                "schedule": {"checkpoints": [10]},
            }
        )
        assert "g" not in cfg.problem

    def test_source_must_be_object(self):
        with pytest.raises(ConfigError, match="object"):
            load_config(
                {
                    "problem": {"kind": "parabolic", "T": 0.1, "f": [1.0, 0.0]},
                    "spectrum": {"basis": "sine1d"},
                    "schedule": {"checkpoints": [10]},
                }
            )

    def test_referenced_csv_must_exist(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(
                {
                    "problem": {
                        "kind": "parabolic",
                        "T": 0.1,
                        "f": {"csv": str(tmp_path / "missing.csv")},
                    },
                    "spectrum": {"basis": "sine1d"},
                    "schedule": {"checkpoints": [10]},
                }
            )

    def test_nested_terminal_source_checked(self, tmp_path):
        # parabolic_terminal carries its own data source; file checks recurse.
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(
                {
                    "problem": {
                        "kind": "parabolic",
                        "T": 0.1,
                        "f": {
                            "generator": "parabolic_terminal",
                            "u0": {"csv": str(tmp_path / "gone.csv")},
                            "T": 0.1,
                        },
                    },
                    "spectrum": {"basis": "sine1d"},
                    "schedule": {"checkpoints": [10]},
                }
            )

    def test_unknown_basis(self):
        with pytest.raises(ConfigError, match="basis"):
            load_config(
                {
                    "problem": {"kind": "parabolic", "T": 0.1, "f": {"generator": "zero"}},
                    "spectrum": {"basis": "chebyshev"},
                    "schedule": {"checkpoints": [10]},
                }
            )

    def test_noise_requires_eps_and_seed(self):
        base = {
            "problem": {"kind": "parabolic", "T": 0.1, "f": {"generator": "zero"}},
            "spectrum": {"basis": "sine1d"},
            "schedule": {"checkpoints": [10]},
        }
        with pytest.raises(ConfigError, match="eps"):
            load_config({**base, "noise": {"seed": 0}})
        with pytest.raises(ConfigError, match="seed"):
            load_config({**base, "noise": {"eps": 1e-3}})

    def test_output_format_validated(self):
        base = {
            "problem": {"kind": "parabolic", "T": 0.1, "f": {"generator": "zero"}},
            "spectrum": {"basis": "sine1d"},
            "schedule": {"checkpoints": [10]},
        }
        with pytest.raises(ConfigError, match="format"):
            load_config({**base, "output": {"format": "xml", "path": "r.xml"}})
        cfg = load_config({**base, "output": {"path": "r.csv"}})
        assert cfg.output["path"] == "r.csv"


    PARABOLIC = {
        "problem": {"kind": "parabolic", "T": 0.1, "f": {"coeffs": [1.0]}},
        "spectrum": {"basis": "sine1d"},
        "schedule": {"checkpoints": [10]},
        "noise": {"eps": 1e-3, "seed": 0},
        "output": {"format": "csv"},
    }

    def changed(self, path, **keys):
        data = json.loads(json.dumps(self.PARABOLIC))
        obj = data
        for key in path:
            obj = obj[key]
        obj.update(keys)
        return data

    @pytest.mark.parametrize(
        "path, where",
        [
            ((), "config"),
            (("problem",), "problem (kind parabolic)"),
            (("problem", "f"), "problem.f (coeffs source)"),
            (("spectrum",), "spectrum (basis sine1d)"),
            (("schedule",), "schedule"),
            (("noise",), "noise"),
            (("output",), "output"),
        ],
    )
    def test_unknown_key_in_each_section(self, path, where):
        load_config(self.changed(path))
        with pytest.raises(ConfigError, match=re.escape(f"{where}: unknown key 'bogus'")):
            load_config(self.changed(path, bogus=1))

    @pytest.mark.parametrize(
        "path, keys, refused",
        [
            # keys of another kind, basis or source form
            (
                ("problem",),
                {"g": {"generator": "zero"}},
                "problem (kind parabolic): unknown key 'g'",
            ),
            (("spectrum",), {"nx": 4}, "spectrum (basis sine1d): unknown key 'nx'"),
            (
                ("spectrum",),
                {"basis": "custom", "eigenvalues": [1.0], "n_modes": 3},
                "spectrum (basis custom): unknown key 'n_modes'",
            ),
            (
                ("problem", "f"),
                {"generator": "zero"},
                "problem.f (coeffs source): unknown key 'generator'",
            ),
            # the grid reader's boundary policy is not a config key
            (
                ("problem",),
                {"f": {"csv": "samples.csv", "boundary": "warn"}},
                "problem.f (csv source): unknown key 'boundary'",
            ),
            # a tolerance is successive_diff_tol
            (("schedule",), {"tol": 1e-6}, "schedule: unknown key 'tol'"),
        ],
    )
    def test_key_the_run_would_not_read(self, path, keys, refused):
        with pytest.raises(ConfigError, match=re.escape(refused)):
            load_config(self.changed(path, **keys))

    def test_custom_basis_requires_eigenvalues(self):
        with pytest.raises(ConfigError, match="'eigenvalues'"):
            load_config(self.changed(("spectrum",), basis="custom"))

    def test_source_needs_a_form(self):
        data = self.changed(("problem",), f={"samples": [0.0]})
        with pytest.raises(ConfigError, match="problem.f needs one of the keys csv, coeffs"):
            load_config(data)


class TestBuildModel:
    def test_sine1d_defaults(self):
        model = build_model({"basis": "sine1d"})
        assert model.n_modes == 16
        assert model.eigenvalues[0] == pytest.approx(math.pi, rel=1e-15)

    def test_sine1d_length(self):
        model = build_model({"basis": "sine1d", "n_modes": 4, "length": 2.0})
        assert model.n_modes == 4
        assert model.eigenvalues[0] == pytest.approx(oracles.HALF_PI, rel=1e-15)

    def test_sine_rect_defaults(self):
        model = build_model({"basis": "sine_rect"})
        assert model.n_modes == 64
        assert model.eigenvalues[0] == pytest.approx(oracles.PI_SQRT2, rel=1e-14)

    def test_custom(self):
        model = build_model({"basis": "custom", "eigenvalues": [1.0, 2.5]})
        assert list(model.eigenvalues) == [1.0, 2.5]

    def test_unknown_basis(self):
        with pytest.raises(ConfigError, match="basis"):
            build_model({"basis": "fourier"})


class TestResolveSource:
    def setup_method(self):
        self.model = make_sine_spectrum_1d(3, 1.0)

    def test_coeffs(self):
        vec = resolve_source({"coeffs": [1.0, 2.0, 3.0]}, self.model)
        assert list(vec.coeffs) == [1.0, 2.0, 3.0]

    def test_zero_generator(self):
        vec = resolve_source({"generator": "zero"}, self.model)
        assert not vec.coeffs.any()

    def test_unit_mode_generator(self):
        vec = resolve_source({"generator": "unit_mode", "k": 2}, self.model)
        assert list(vec.coeffs) == [0.0, 1.0, 0.0]

    def test_csv_ingestion(self, tmp_path):
        # First basis function sampled on a fine grid; quadrature recovers e_1.
        xs = np.linspace(0.0, 1.0, 129)
        path = tmp_path / "g.csv"
        lines = ["x,value"]
        lines += [f"{x},{math.sqrt(2.0) * math.sin(math.pi * x)}" for x in xs]
        path.write_text("\n".join(lines) + "\n")
        vec = resolve_source({"csv": str(path)}, self.model)
        assert np.max(np.abs(vec.coeffs - [1.0, 0.0, 0.0])) < 1e-4

    def test_nested_terminal_source(self):
        vec = resolve_source(
            {
                "generator": "parabolic_terminal",
                "u0": {"generator": "unit_mode", "k": 1},
                "T": 0.0625,
                "a2": 8.0,
            },
            self.model,
        )
        assert vec.coeffs[0] == pytest.approx(oracles.EXP_NEG_PI2_128, rel=1e-13)

    def test_rejects_non_dict(self):
        with pytest.raises(ConfigError, match="object"):
            resolve_source("zero", self.model)

    def test_zero_generator_takes_no_parameters(self):
        with pytest.raises(ConfigError, match="zero got unexpected parameters"):
            resolve_source({"generator": "zero", "k": 1}, self.model)

    def test_rejects_unrecognized_form(self):
        with pytest.raises(ConfigError, match="generator"):
            resolve_source({"samples": [0.0]}, self.model)


class TestRunExperiment:
    def test_single_mode_errors_match_closed_form(self):
        # f = 0, g = e_1, T = 1: the m-step iterate misses the Neumann trace
        # by exactly tanh(pi)^(2m).
        result = run_experiment(elliptic_mode_config(k=1, checkpoints=(100, 1000)))
        recs = {r.k: r for r in result.report.records}
        assert recs[100].error_vs_reference == pytest.approx(
            oracles.TANH_PI_200, rel=1e-10
        )
        assert recs[1000].error_vs_reference == pytest.approx(
            oracles.TANH_PI_2000, rel=1e-10
        )

    def test_zero_data_zero_error_everywhere(self):
        cfg = load_config(
            {
                "problem": {
                    "kind": "elliptic",
                    "T": 1.0,
                    "f": {"generator": "zero"},
                    "g": {"generator": "zero"},
                },
                "spectrum": {"basis": "sine1d", "n_modes": 4},
                "schedule": {"checkpoints": [10, 100, 1000]},
            }
        )
        result = run_experiment(cfg)
        assert all(r.error_vs_reference == 0.0 for r in result.report.records)

    def test_reference_is_clean_oracle(self):
        result = run_experiment(elliptic_mode_config(k=1, checkpoints=(10,)))
        assert result.reference.coeffs[0] == pytest.approx(
            oracles.COSH_PI, rel=1e-13
        )

    def test_parabolic_a2_rescales_horizon(self):
        cfg = load_config(
            {
                "problem": {
                    "kind": "parabolic",
                    "T": 0.0625,
                    "a2": 8.0,
                    "f": {"coeffs": [1.0, 0.0, 0.0]},
                },
                "spectrum": {"basis": "sine1d", "n_modes": 3},
                "schedule": {"checkpoints": [10]},
            }
        )
        result = run_experiment(cfg)
        assert result.reference.coeffs[0] == pytest.approx(
            1.0 / oracles.EXP_NEG_PI2_128, rel=1e-13
        )
        model = result.model
        direct = build_factors(
            Parabolic(T=0.0625 / 8.0, f=unit_mode(model, 1), gamma=1.0)
        )
        np.testing.assert_allclose(result.factors.factors, direct.factors, rtol=0)

    @staticmethod
    def terminal_config(problem_T, problem_a2, f_T, f_a2, n_modes=6):
        return load_config(
            {
                "problem": {
                    "kind": "parabolic",
                    "T": problem_T,
                    "a2": problem_a2,
                    "f": {
                        "generator": "parabolic_terminal",
                        "u0": {"generator": "piecewise_profile"},
                        "T": f_T,
                        "a2": f_a2,
                    },
                },
                "spectrum": {"basis": "sine1d", "n_modes": n_modes},
                "schedule": {"checkpoints": [10]},
            }
        )

    def test_parabolic_terminal_reference_is_known_u0(self):
        # same horizon T / a2 = 1/32 written two ways: the reference is u0 itself
        result = run_experiment(self.terminal_config(0.25, 8.0, 0.0625, 2.0))
        u0 = resolve_source({"generator": "piecewise_profile"}, result.model)
        np.testing.assert_array_equal(result.reference.coeffs, u0.coeffs)

    def test_parabolic_terminal_other_horizon_uses_backward_trace(self):
        # the datum ran only half the problem's horizon: u0 is not the trace
        result = run_experiment(self.terminal_config(0.0625, 1.0, 0.03125, 1.0))
        u0 = resolve_source({"generator": "piecewise_profile"}, result.model)
        f = synth_data("parabolic_terminal", result.model, u0=u0, T=0.03125)
        expected = parabolic_backward_trace(Parabolic(T=0.0625, f=f, gamma=1.0))
        np.testing.assert_array_equal(result.reference.coeffs, expected.coeffs)
        assert not np.allclose(result.reference.coeffs, u0.coeffs)

    def test_parabolic_reference_survives_underflowed_datum(self):
        # exp(-lambda^2 T) u0 is subnormal on the high modes of a 40 x 40
        # rectangle; rebuilding u0 from it overflowed the guard
        cfg = load_config(
            {
                "problem": {
                    "kind": "parabolic",
                    "T": 0.0625,
                    "a2": 2.0,
                    "gamma": 2.0,
                    "f": {
                        "generator": "parabolic_terminal",
                        "u0": {"generator": "piecewise_profile"},
                        "T": 0.0625,
                        "a2": 2.0,
                    },
                },
                "spectrum": {"basis": "sine_rect", "nx": 40, "ny": 40},
                "schedule": {"checkpoints": [10, 1000]},
            }
        )
        result = run_experiment(cfg)
        u0 = resolve_source({"generator": "piecewise_profile"}, result.model)
        np.testing.assert_array_equal(result.reference.coeffs, u0.coeffs)
        errors = [r.error_vs_reference for r in result.report.records]
        assert all(0.0 < e < 1.0 for e in errors)

    def test_noise_reference_still_clean(self):
        noisy = run_experiment(
            elliptic_mode_config(
                k=1, checkpoints=(10,), noise={"eps": 1e-2, "seed": 7}
            )
        )
        clean = run_experiment(elliptic_mode_config(k=1, checkpoints=(10,)))
        np.testing.assert_array_equal(
            noisy.reference.coeffs, clean.reference.coeffs
        )
        # but the iteration itself ran on perturbed data
        assert np.any(noisy.factors.z.coeffs != clean.factors.z.coeffs)

    def test_noise_split_parabolic_full_level(self):
        # The terminal state takes the whole budget; with gamma = 1 the
        # affine term is the data itself, so ||z_eps - z|| = eps exactly.
        base = {
            "problem": {
                "kind": "parabolic",
                "T": 0.0625,
                "f": {"coeffs": [1.0, 0.0, 0.0, 0.0]},
            },
            "spectrum": {"basis": "sine1d", "n_modes": 4},
            "schedule": {"checkpoints": [10]},
        }
        clean = run_experiment(load_config(base))
        noisy = run_experiment(
            load_config({**base, "noise": {"eps": 1e-3, "seed": 1}})
        )
        delta = noisy.factors.z.coeffs - clean.factors.z.coeffs
        assert math.sqrt(float(delta @ delta)) == pytest.approx(1e-3, rel=1e-12)

    def test_noise_deterministic(self):
        cfg = elliptic_mode_config(
            k=1, checkpoints=(100,), noise={"eps": 1e-3, "seed": 42}
        )
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        np.testing.assert_array_equal(a.factors.z.coeffs, b.factors.z.coeffs)
        assert a.report == b.report

    def test_z_variant_refused(self, tmp_path, capsys):
        # the "unscaled_g" variant is gone; a config that still names it
        # exits 2 instead of silently running the consistent iteration
        base = {
            "problem": {
                "kind": "hyperbolic",
                "T": 1.0 / math.pi,
                "f": {"generator": "zero"},
                "g": {"generator": "unit_mode", "k": 1},
            },
            "spectrum": {"basis": "sine1d", "n_modes": 3},
            "schedule": {"checkpoints": [10]},
        }
        run_experiment(load_config(base))
        for variant in ("unscaled_g", "consistent"):
            cfg = {**base, "problem": {**base["problem"], "z_variant": variant}}
            with pytest.raises(ConfigError, match="z_variant"):
                load_config(cfg)
            path = tmp_path / f"{variant}.json"
            path.write_text(json.dumps(cfg))
            assert main(["hyperbolic", "--config", str(path)]) == EXIT_CONFIG
            assert "z_variant" in capsys.readouterr().err

    def test_output_emission(self, tmp_path):
        path = tmp_path / "report.csv"
        cfg = elliptic_mode_config(
            k=1,
            checkpoints=(10,),
            output={"format": "csv", "path": str(path)},
        )
        result = run_experiment(cfg)
        assert result.paths == (str(path),)
        text = path.read_text()
        assert text.startswith("k,rel_error,successive_diff,residual\n")
        assert text.count("\n") == 2

    def test_stepwise_schedule_honored(self):
        cfg = elliptic_mode_config(k=1, checkpoints=(10, 50))
        cfg = ExperimentConfig(
            problem=cfg.problem,
            spectrum=cfg.spectrum,
            schedule={"checkpoints": [10, 50], "mode": "stepwise", "max_steps": 50},
            noise=None,
            output=None,
        )
        stepped = run_experiment(cfg)
        closed = run_experiment(elliptic_mode_config(k=1, checkpoints=(10, 50)))
        for rs, rc in zip(stepped.report.records, closed.report.records):
            assert rs.error_vs_reference == pytest.approx(
                rc.error_vs_reference, rel=1e-10
            )


class TestConvergenceTable:
    def setup_method(self):
        self.table = run_convergence_table()

    def test_shape_and_labels(self):
        assert self.table.row_labels == ("mode 1", "mode 2", "mode 3")
        assert self.table.checkpoints == CONVERGENCE_CHECKPOINTS
        assert all(len(row) == len(self.table.checkpoints) for row in self.table.errors)

    def test_mode1_at_100_steps(self):
        errs = dict(zip(self.table.checkpoints, self.table.errors[0]))
        assert 0.45 <= errs[100] <= 0.50
        assert errs[100] == pytest.approx(oracles.TANH_PI_200, rel=1e-10)

    def test_columns_ordered_by_mode(self):
        # Higher modes converge later: within every column the error grows
        # with the mode number.
        e1, e2, e3 = self.table.errors
        for c in range(len(self.table.checkpoints)):
            assert e1[c] <= e2[c] <= e3[c]

    def test_known_entries(self):
        errs2 = dict(zip(self.table.checkpoints, self.table.errors[1]))
        errs3 = dict(zip(self.table.checkpoints, self.table.errors[2]))
        assert errs2[10**5] == pytest.approx(oracles.TANH_2PI_2E5, rel=1e-8)
        assert errs3[10**6] == pytest.approx(oracles.TANH_3PI_2E6, rel=1e-8)
        assert errs3[10**8] == pytest.approx(oracles.TANH_3PI_2E8, rel=1e-8)
        assert abs(errs3[10**9] - oracles.TANH_3PI_2E9) <= (
            1e-8 * oracles.TANH_3PI_2E9 + 1e-13
        )

    def test_rows_decay_along_checkpoints(self):
        for row in self.table.errors:
            for a, b in zip(row, row[1:]):
                assert b <= a


class TestDecayTable:
    def setup_method(self):
        self.table = run_decay_table()

    def test_labels_and_checkpoints(self):
        assert self.table.row_labels == ("a^2 = 8", "a^2 = 2")
        assert self.table.checkpoints == DECAY_CHECKPOINTS

    def test_error_declines_over_steps(self):
        for row in self.table.errors:
            assert row[-1] < row[0]

    def test_faster_diffusion_reconstructs_better(self):
        # Shorter effective horizon damps less, so the a^2 = 8 run sits
        # below the a^2 = 2 run at every checkpoint.
        fast, slow = self.table.errors
        for c in range(len(self.table.checkpoints)):
            assert fast[c] < slow[c]


def make_report(records=(), kind="elliptic", scale=0.0):
    return IterationReport(
        kind=kind,
        scale=scale,
        records=tuple(records),
        final_k=records[-1].k if records else 0,
        termination_reason="max_steps",
    )


class TestRenderReport:
    def setup_method(self):
        self.model = make_sine_spectrum_1d(2, 1.0)
        self.record = CheckpointRecord(
            k=10,
            iterate=from_coeffs(self.model, [0.5, -0.25]),
            successive_diff=0.125,
            residual=0.0625,
            error_vs_reference=0.5,
        )

    def test_empty_records_header_only_csv(self):
        text = render_report(make_report(), "csv")
        assert text == "k,rel_error,successive_diff,residual\n"

    def test_one_record_two_csv_lines(self):
        text = render_report(make_report([self.record]), "csv")
        lines = text.rstrip("\n").split("\n")
        assert len(lines) == 2
        assert lines[1] == "10,0.5,0.125,0.0625"

    def test_missing_reference_renders_empty_field(self):
        rec = dataclass_replace(self.record, error_vs_reference=None)
        text = render_report(make_report([rec]), "csv")
        assert text.rstrip("\n").split("\n")[1] == "10,,0.125,0.0625"

    def test_markdown_includes_termination(self):
        text = render_report(make_report([self.record]), "markdown")
        assert "| k | rel_error | successive_diff | residual |" in text
        assert "terminated at k = 10 (max_steps)" in text

    def test_json_round_trip_from_real_run(self):
        report = run_experiment(
            elliptic_mode_config(k=1, checkpoints=(10, 100))
        ).report
        parsed = report_from_dict(json.loads(render_report(report, "json")))
        assert parsed == report

    def test_dict_round_trip_empty(self):
        report = make_report()
        assert report_from_dict(report_to_dict(report)) == report

    def test_unknown_format(self):
        with pytest.raises(ConfigError, match="format"):
            render_report(make_report(), "xml")


def dataclass_replace(obj, **changes):
    import dataclasses

    return dataclasses.replace(obj, **changes)


class TestRenderTable:
    def setup_method(self):
        self.table = TableResult(
            title="toy table",
            row_labels=("mode 1", "mode 2"),
            checkpoints=(10, 100),
            errors=((0.5, 0.25), (0.75, 0.5)),
        )

    def test_csv(self):
        text = render_table(self.table, "csv")
        lines = text.rstrip("\n").split("\n")
        assert lines[0] == "run,10,100"
        assert lines[1] == "mode 1,0.5,0.25"
        assert lines[2] == "mode 2,0.75,0.5"

    def test_json(self):
        data = json.loads(render_table(self.table, "json"))
        assert data["title"] == "toy table"
        assert data["checkpoints"] == [10, 100]
        assert data["rows"][1] == {"label": "mode 2", "rel_errors": [0.75, 0.5]}

    def test_markdown_percentages(self):
        text = render_table(self.table, "markdown")
        assert "toy table" in text
        assert "| 10 steps | 100 steps |" in text
        assert "| mode 1 | 50% | 25% |" in text

    def test_unknown_format(self):
        with pytest.raises(ConfigError, match="format"):
            render_table(self.table, "yaml")


FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, -1e-300, 5e-324]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), FLOATS, st.text(),
    FLOATS.map(np.float64),
)
KEYS = st.one_of(st.text(), st.integers(), FLOATS, st.booleans(), st.none())


def json_trees():
    """JSON-like trees, with the shapes the encoder writes in one call
    (lists of floats, lists of ints, rows of ints, dicts of scalars) drawn
    on purpose beside arbitrary nesting."""
    int_rows = st.integers(0, 3).flatmap(
        lambda n: st.lists(st.lists(st.integers(-(2**70), 2**70), min_size=n, max_size=n))
    )
    leaves = st.one_of(
        SCALARS, st.lists(FLOATS), st.lists(st.integers()), int_rows,
        st.dictionaries(st.text(), SCALARS), st.dictionaries(KEYS, SCALARS),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.text(), children, max_size=4),
            st.dictionaries(KEYS, children, max_size=3),
        ),
        max_leaves=12,
    )


class TestRenderRows:
    COLUMNS = (("x", "x value", "---"), ("y", "y", "---:"), ("ok", "ok?", ":---:"))
    ROWS = [["1", "0.5", "1"], ["2", "0.25", "0"]]

    @staticmethod
    def unused_payload():
        raise AssertionError("the JSON payload was built for a text format")

    def test_csv(self):
        text = render_rows(
            "csv", self.COLUMNS, self.ROWS, self.unused_payload,
            title="ignored", notes=("ignored",), csv_notes=("# total=3",),
            md_rows=[["ignored"]],
        )
        assert text == "x,y,ok\n1,0.5,1\n2,0.25,0\n# total=3\n"

    def test_markdown(self):
        text = render_rows(
            "markdown", self.COLUMNS, self.ROWS, self.unused_payload,
            title="Title", notes=("first note", "second note"), csv_notes=("# ignored",),
            md_rows=[["1", "0.5", "yes"], ["2", "0.25", ""]],
        )
        assert text == (
            "Title\n\n"
            "| x value | y | ok? |\n"
            "| --- | ---: | :---: |\n"
            "| 1 | 0.5 | yes |\n"
            "| 2 | 0.25 |  |\n"
            "\nfirst note\nsecond note\n"
        )

    def test_markdown_without_title_notes_or_md_rows(self):
        text = render_rows("markdown", self.COLUMNS[:1], [["1"]], self.unused_payload)
        assert text == "| x value |\n| --- |\n| 1 |\n"

    def test_json_prints_payload(self):
        calls = []

        def payload():
            calls.append(1)
            return {"rows": [1.0, float("inf")]}

        text = render_rows("json", self.COLUMNS, self.ROWS, payload)
        assert text == '{\n  "rows": [\n    1.0,\n    Infinity\n  ]\n}\n'
        assert calls == [1]

    @given(json_trees())
    @settings(max_examples=300, deadline=None)
    def test_json_is_the_bytes_of_json_dumps(self, tree):
        text = render_rows("json", self.COLUMNS, self.ROWS, lambda: tree)
        assert text == json.dumps(tree, indent=2) + "\n"

    def test_unknown_format(self):
        with pytest.raises(ConfigError, match="unknown report format 'xml'"):
            render_rows("xml", self.COLUMNS, self.ROWS, self.unused_payload)

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_report_text_formats_skip_the_payload(self, monkeypatch, fmt):
        report = run_experiment(elliptic_mode_config(checkpoints=(10,))).report
        monkeypatch.setattr("kmiter.bench.report_to_dict", self.unused_payload)
        assert render_report(report, fmt).count("\n") >= 2


def assert_round_trip(model):
    """Through JSON text: an equal model that hashes equal, its map read-only."""
    back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    assert back == model and hash(back) == hash(model)
    assert back.mode_index_map.dtype == np.int64 and not back.mode_index_map.flags.writeable


class TestModelSerialization:
    def test_sine1d_round_trip(self):
        assert_round_trip(make_sine_spectrum_1d(5, 2.0))

    def test_rect_round_trip(self):
        assert_round_trip(make_sine_spectrum_rect(3, 2, 1.0, 2.0))

    def test_custom_round_trip(self):
        assert_round_trip(make_custom_spectrum([1.0, 4.0, 9.0]))

    def test_unknown_basis_kind(self):
        with pytest.raises(ConfigError, match="basis"):
            model_from_dict({"basis": {"kind": "wavelet"}, "eigenvalues": [], "mode_index_map": []})


class TestAtomicWrite:
    def test_writes_and_cleans_up(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-kmiter-")]
        assert leftovers == []

    def test_overwrites(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        assert path.read_text() == "two\n"


class TestDeterminism:
    def test_identical_config_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (p1, p2):
            run_experiment(
                elliptic_mode_config(
                    k=1,
                    checkpoints=(10, 100),
                    noise={"eps": 1e-3, "seed": 5},
                    output={"format": "csv", "path": str(path)},
                )
            )
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_output_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for path in (p1, p2):
            run_experiment(
                elliptic_mode_config(
                    k=2,
                    checkpoints=(100,),
                    noise={"eps": 1e-4, "seed": 11},
                    output={"format": "json", "path": str(path)},
                )
            )
        assert p1.read_bytes() == p2.read_bytes()


class TestCutoffStudy:
    def setup_method(self):
        self.study = run_cutoff_study(n_modes=16, eps=1e-4, seed=0)

    def test_noise_was_measured(self):
        assert self.study.eps_prime > 0.0

    def test_selection_in_range(self):
        assert 0 <= self.study.selection.index < len(self.study.curve)

    def test_star_close_to_best(self):
        assert self.study.error_at_star >= self.study.best_error
        assert self.study.error_at_star <= 3.0 * self.study.best_error

    def test_bound_has_interior_minimum(self):
        bounds = [p.bound for p in self.study.curve]
        assert min(bounds) < bounds[0]
        assert min(bounds) < bounds[-1]

    def test_deterministic(self):
        again = run_cutoff_study(n_modes=16, eps=1e-4, seed=0)
        assert again.curve == self.study.curve
        assert again.selection == self.study.selection

    def test_noise_is_that_of_run_experiment(self):
        # the study and `elliptic --eps` share one data set-up and noise split
        study = run_cutoff_study(n_modes=64, eps=1e-3, seed=3)
        problem = {
            "kind": "elliptic",
            "T": 0.25,
            "f": {"generator": "zero"},
            "g": {"generator": "piecewise_profile"},
        }
        spectrum = {"basis": "sine1d", "n_modes": 64, "length": 1.0}
        schedule = {"checkpoints": [1]}
        clean, noisy = (
            run_experiment(ExperimentConfig(problem, spectrum, schedule, noise=noise)).factors
            for noise in (None, {"eps": 1e-3, "seed": 3})
        )
        assert repr(study.eps_prime) == repr(measure_eps_prime(clean, noisy, -0.5))

    def test_fractional_mode_count_refused(self):
        with pytest.raises(ConfigError, match="n_modes must be an integer"):
            run_cutoff_study(n_modes=16.5)
        assert run_cutoff_study(n_modes=16.0).curve == self.study.curve

    def test_negative_noise_seed_in_a_config_refused(self):
        cfg = load_config(
            {
                "problem": {
                    "kind": "elliptic", "T": 1.0, "f": {"generator": "zero"},
                    "g": {"generator": "unit_mode", "k": 1},
                },
                "spectrum": {"basis": "sine1d", "n_modes": 4},
                "schedule": {"checkpoints": [10]},
                "noise": {"seed": -1, "eps": 1e-3},
            }
        )
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            run_experiment(cfg)
