import csv
import io
import json
import math

import numpy as np
import pytest

import asyncheat
from asyncheat.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
)
from conftest import fresh_interpreter

SMALL_VERIFY = "configs/small_verify.json"

BASE_CONFIG = {
    "num_pes": 4,
    "dx": 1.0,
    "dt": 0.5,
    "alpha": 1.0,
    "buffer_len": 2,
    "steps": 40,
    "seed": 12345,
    "ensemble_size": 20,
    "epsilons": [0.01, 1.0],
}


def write_config(tmp_path, overrides=None, name="config.json"):
    raw = dict(BASE_CONFIG)
    if overrides:
        raw.update(overrides)
        for key in [k for k, v in raw.items() if v is None]:
            del raw[key]
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestLoadConfig:
    def test_defaults_filled(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        problem = cfg.problem
        assert problem.aspec.grid.points_per_pe == 1
        assert problem.bc.u_left == 1.0 and problem.bc.u_right == 0.0
        cos2 = asyncheat.cos2_initial_condition(problem.aspec.grid)
        np.testing.assert_array_equal(problem.initial[1:-1], cos2[1:-1])
        np.testing.assert_array_equal(
            problem.dist.probs,
            asyncheat.SwitchingDistribution.uniform(problem.aspec).probs,
        )
        assert cfg.mode_cap == 100_000
        assert cfg.output_dir is None
        assert cfg.snapshot_steps == (0, 20, 40)
        assert cfg.sweep_step == 40
        assert cfg.sweep_epsilons == (0.01, 1.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"stepz": 5})
        with pytest.raises(ConfigError, match="stepz"):
            load_config(path)

    def test_missing_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"seed": None})
        with pytest.raises(ConfigError, match="seed"):
            load_config(path)

    def test_invalid_grid_rejected(self, tmp_path):
        path = write_config(tmp_path, {"dt": 2.0})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_initial_rejected(self, tmp_path):
        path = write_config(tmp_path, {"initial": "banana"})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_explicit_initial_vector(self, tmp_path):
        path = write_config(tmp_path, {"initial": [1.0, 0.7, 0.3, 0.0]})
        cfg = load_config(path)
        np.testing.assert_array_equal(cfg.problem.initial,
                                      [1.0, 0.7, 0.3, 0.0])

    @pytest.mark.parametrize("key", ["num_pes", "buffer_len", "steps", "seed",
                                     "ensemble_size", "sweep_step",
                                     "mode_cap", "points_per_pe"])
    def test_non_integral_number_rejected(self, tmp_path, key):
        path = write_config(tmp_path, {key: 2.7})
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    def test_integral_float_accepted(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"steps": 40.0,
                                                  "ensemble_size": 20.0}))
        assert cfg.problem.steps == 40 and cfg.ensemble_size == 20
        assert isinstance(cfg.problem.steps, int)

    def test_integer_for_float_key_accepted(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {
            "dx": 1, "alpha": 1, "u_left": 2, "u_right": 0,
            "epsilons": [1], "sweep_epsilons": [2], "delay_probs": [1, 0],
            "initial": [2, 1, 1, 0],
        }))
        problem = cfg.problem
        assert problem.aspec.grid.dx == 1.0
        assert problem.bc.u_left == 2.0 and problem.bc.u_right == 0.0
        assert problem.epsilons == (1.0,) and cfg.sweep_epsilons == (2.0,)
        assert all(isinstance(e, float)
                   for e in (*problem.epsilons, *cfg.sweep_epsilons))
        np.testing.assert_array_equal(problem.initial, [2.0, 1.0, 1.0, 0.0])

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        path = write_config(tmp_path, {"u_left": 10**400})
        with pytest.raises(ConfigError, match="too large"):
            load_config(path)

    @pytest.mark.parametrize("snaps", [[-1], [0, 41], [0, 2.5]])
    def test_snapshot_steps_outside_horizon_rejected(self, tmp_path, snaps):
        path = write_config(tmp_path, {"snapshot_steps": snaps})
        with pytest.raises(ConfigError, match="snapshot_steps"):
            load_config(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestExitCodes:
    def test_config_error_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"dt": 2.0})
        code = main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"

    def test_missing_config_file_exit_2(self, tmp_path):
        code = main(
            ["simulate", "--config", str(tmp_path / "nope.json"),
             "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG

    def test_mode_cap_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"num_pes": 12, "buffer_len": 3,
                                       "mode_cap": 100})
        code = main(["verify", "--config", path])
        assert code == EXIT_CONFIG

    def test_mode_cap_zero_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mode_cap": 0})
        code = main(["verify", "--config", path])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"

    def test_negative_sweep_step_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"sweep_step": -1})
        code = main(["simulate", "compare", "--config", path,
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert "sweep_step" in err["message"]

    @pytest.mark.parametrize("overrides", [
        {"ensemble_size": 0},
        {"sweep_epsilons": [0.5, 0.0]},
        {"epsilons": [float("nan")]},
        {"epsilons": [0.0]},
        {"epsilons": [-1.0]},
        {"seed": -1},
        {"num_pes": "abc"},
        {"num_pes": None},
        {"buffer_len": True},
        {"u_left": None},
        {"epsilons": 5},
        {"delay_probs": [0.5, "x"]},
        {"initial": [1.0, 0.5]},
        {"output_dir": 5},
        {"dx": "1.0"},
        {"u_left": True},
        {"u_right": float("nan")},
        {"epsilons": ["0.01"]},
        {"delay_probs": ["0.5", "0.5"]},
        {"initial": [1.0, 0.7, 0.3, "0"]},
        {"epsilons": []},
        {"sweep_epsilons": []},
    ], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
    def test_bad_value_exit_2_before_output(self, tmp_path, capsys,
                                            overrides):
        # written directly: write_config drops keys set to None
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**BASE_CONFIG, **overrides}))
        out = tmp_path / "out"
        code = main(["simulate", "analyze", "compare", "--config", str(path),
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"

    def test_numerical_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        from asyncheat import analysis, cli

        def exhausted(*args, **kwargs):
            raise analysis.HorizonExhaustedError("never contracted")

        monkeypatch.setattr(cli.analysis, "tail_constants", exhausted)
        path = write_config(tmp_path)
        code = main(["analyze", "--config", path, "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "numerical"

    def test_unstable_deflated_mode_exit_3(self, tmp_path, capsys,
                                          monkeypatch):
        # with a zero psi, W~_m keeps both unit eigenvalues; deflate only
        # subtracts, and the certificate refuses it
        from dataclasses import replace

        from asyncheat import cli

        real = cli.modes.build_projector

        def zero_psi(aspec):
            proj = real(aspec)
            return replace(proj, psi=np.zeros_like(proj.psi))

        monkeypatch.setattr(cli.modes, "build_projector", zero_psi)
        path = write_config(tmp_path)
        code = main(["analyze", "--config", path, "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "numerical"

    def test_mean_rate_premise_checked_before_writing(
        self, tmp_path, capsys, monkeypatch
    ):
        from dataclasses import replace

        from asyncheat import cli

        real = cli.analysis.verify_mean_contraction

        def violating(lam, cert):
            report = real(lam, cert)
            return replace(report, lambda_max_p=2 * cert.lambda_max)

        monkeypatch.setattr(cli.analysis, "verify_mean_contraction", violating)
        path = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["analyze", "--config", path, "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not (out / "rate_bound.csv").exists()
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "numerical"

    def test_unwritable_output_exit_4(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(["analyze", "--config", path, "--out", "/dev/null/x"])
        assert code == EXIT_IO
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "io"


class TestSimulate:
    def test_artifacts_and_schema(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "sync_trajectory.csv")
        assert header == ["step", "error_norm", "inf_error"]
        assert len(rows) == 41
        assert rows[0][0] == "0" and rows[-1][0] == "40"

        header, rows = read_csv(out / "async_ensemble.csv")
        assert header == ["step", "mean_error_norm", "mean_sq_error",
                          "max_inf_error"]
        assert len(rows) == 41
        for row in rows:
            for cell in row[1:]:
                assert math.isfinite(float(cell))

        header, rows = read_csv(out / "exceedance.csv")
        assert header == ["step", "epsilon", "empirical_probability"]
        assert len(rows) == 2 * 41
        probs = [float(r[2]) for r in rows]
        assert all(0.0 <= p <= 1.0 for p in probs)
        # empirical probability is a multiple of 1/ensemble_size
        assert all(
            abs(p * 20 - round(p * 20)) < 1e-12 for p in probs
        )

        header, rows = read_csv(out / "sync_snapshots.csv")
        assert header == ["step", "point", "value"]
        assert [r[0] for r in rows[:4]] == ["0"] * 4
        assert [r[1] for r in rows[:4]] == ["1", "2", "3", "4"]

    def test_deterministic_artifacts(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", path, "--out", str(out1)])
        main(["simulate", "--config", path, "--out", str(out2)])
        for name in ("sync_trajectory.csv", "async_ensemble.csv",
                     "exceedance.csv", "sync_snapshots.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_crlf_free_and_17_digits(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", "--config", path, "--out", str(out)])
        data = (out / "async_ensemble.csv").read_bytes()
        assert b"\r" not in data
        # round-trip: shortest repr that parses back exactly
        _, rows = read_csv(out / "async_ensemble.csv")
        for row in rows:
            for cell in row[1:]:
                assert format(float(cell), ".17g") == cell

    def test_zero_steps_single_row(self, tmp_path):
        path = write_config(tmp_path, {"steps": 0, "snapshot_steps": [0]})
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out / "sync_trajectory.csv")
        assert len(rows) == 1


class TestAnalyze:
    def test_artifacts_and_certificate(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["analyze", "--config", path, "--out", str(out)]) == EXIT_OK

        header, rows = read_csv(out / "rate_bound.csv")
        assert header == ["step", "mean_error_bound"]
        bounds = [float(r[1]) for r in rows]
        assert len(bounds) == 41
        assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))

        header, rows = read_csv(out / "prob_bound.csv")
        assert header == ["step", "epsilon", "bound"]
        assert len(rows) == 2 * 41
        assert all(0.0 <= float(r[2]) <= 1.0 for r in rows)

        cert = json.loads((out / "certificate.json").read_text())
        assert cert["dim"] == 8
        assert cert["lambda_max_p_m"] >= cert["lambda_min_p_m"] >= 1.0 - 1e-12
        assert 0.0 < cert["mean_rate"] < 1.0
        assert 0.0 < cert["second_moment_rate"] < 1.0
        assert cert["k0"] >= 1 and cert["c0"] >= 1.0 and cert["c1"] < 1.0
        assert cert["lyapunov_residual"] <= 1e-8
        assert cert["initial_error_norm"] > 0

    def test_deterministic(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["analyze", "--config", path, "--out", str(out1)])
        main(["analyze", "--config", path, "--out", str(out2)])
        assert (out1 / "certificate.json").read_bytes() == (
            out2 / "certificate.json"
        ).read_bytes()


class TestVerify:
    def test_passes_small_system(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["verify", "--config", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_q1_degenerate(self, tmp_path):
        path = write_config(tmp_path, {"buffer_len": 1})
        assert main(["verify", "--config", path]) == EXIT_OK

    def test_nonuniform_delay_probs(self, tmp_path):
        path = write_config(tmp_path, {"delay_probs": [0.7, 0.3]})
        assert main(["verify", "--config", path]) == EXIT_OK

    @pytest.mark.parametrize(
        "overrides",
        [{"num_pes": 6, "buffer_len": 3, "dt": dt} for dt in (0.4, 0.3, 0.25)]
        + [{"num_pes": 1, "points_per_pe": 5, "buffer_len": 2, "dt": 0.4}],
        ids=["N6-q3-dt0.4", "N6-q3-dt0.3", "N6-q3-dt0.25", "1x5-q2-dt0.4"],
    )
    def test_simulator_check_passes_below_r_one_half(self, tmp_path,
                                                     overrides):
        """At r != 1/2 a stencil row has three terms, whose sum depends on
        their order: the simulator is checked against the mode product
        summed in grid-position order, not against a BLAS product."""
        path = write_config(tmp_path, overrides)
        assert main(["verify", "--config", path]) == EXIT_OK

    @pytest.mark.parametrize("dt", [0.5, 0.4])
    def test_simulator_off_by_one_ulp_exits_3(self, tmp_path, capsys,
                                              monkeypatch, dt):
        from asyncheat import cli

        real = cli.sim.async_step

        def perturbed(history, delays, aspec):
            stepped = real(history, delays, aspec)
            stepped[0, 1] = np.nextafter(stepped[0, 1], np.inf)
            return stepped

        monkeypatch.setattr(cli.sim, "async_step", perturbed)
        path = write_config(tmp_path, {"num_pes": 6, "buffer_len": 3,
                                       "dt": dt})
        assert main(["verify", "--config", path]) == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().err)
        assert err["message"].startswith("simulator/matrix mismatch")

    def test_enumerates_modes_once(self, tmp_path, monkeypatch):
        """verify holds no mode list: it streams bounded chunks."""
        from asyncheat import cli

        sizes = []
        real_batches = cli.modes.mode_batches

        def batches(*args, **kwargs):
            for delays, w in real_batches(*args, **kwargs):
                sizes.append(len(w))
                yield delays, w

        monkeypatch.setattr(cli.modes, "mode_batches", batches)
        path = write_config(tmp_path)
        assert main(["verify", "--config", path]) == EXIT_OK
        assert sizes and max(sizes) <= cli.modes._CHUNK_MODES

    def test_failure_is_one_json_line(self, tmp_path, capsys, monkeypatch):
        """A failed check exits 3 the way every command fails: one JSON
        line on stderr, after verify's summary on stdout."""
        from asyncheat import cli

        real = cli.modes.expected_matrix
        monkeypatch.setattr(cli.modes, "expected_matrix",
                            lambda *args: real(*args) + 1e-9)
        path = write_config(tmp_path)
        assert main(["verify", "--config", path]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert "modes, Lambda diff 1.000e-09, probability sum" in captured.out
        assert "all checks passed" not in captured.out
        assert "FAIL:" not in captured.out + captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "numerical"
        assert "factorized vs enumerated Lambda" in err["message"]

    def test_failing_modes_are_counted_not_listed(self, tmp_path, capsys,
                                                  monkeypatch):
        """Every mode failing puts a count and the first five patterns,
        gathered across chunks, on stderr, not one clause per mode."""
        from dataclasses import replace

        from asyncheat import cli

        real = cli.modes.verify_eigenstructure

        def failing(w, proj):
            report = real(w, proj)
            return replace(report, passed=np.zeros_like(report.passed))

        monkeypatch.setattr(cli.modes, "verify_eigenstructure", failing)
        monkeypatch.setattr(cli.modes, "_CHUNK_MODES", 2)
        path = write_config(tmp_path, {"num_pes": 5, "buffer_len": 3})
        assert main(["verify", "--config", path]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert "verify: 729 modes, Lambda diff" in captured.out
        lines = captured.err.splitlines()
        assert len(lines) == 1 and len(captured.err) < 2048
        message = json.loads(lines[0])["message"]
        assert message.startswith(
            "eigenstructure failed for 729 modes, first delays "
            "(0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 2), "
            "(0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 1, 1)")
        assert message.count("(") == 5
        assert "inf norm" not in message


class TestCompare:
    def test_artifacts_and_consistency(self, tmp_path):
        path = write_config(tmp_path, {"steps": 60, "sweep_step": 30,
                                       "sweep_epsilons": [0.1, 0.5, 2.0]})
        out = tmp_path / "out"
        assert main(["compare", "--config", path, "--out", str(out)]) == EXIT_OK

        header, rows = read_csv(out / "comparison.csv")
        assert header == ["step", "epsilon", "empirical_probability",
                          "empirical_markov", "analytic_bound"]
        assert len(rows) == 2 * 61
        for row in rows:
            empirical = float(row[2])
            markov = float(row[3])
            bound = float(row[4])
            assert 0.0 <= empirical <= 1.0
            assert empirical <= markov + 1e-12  # Markov dominates per sample
            assert 0.0 <= bound <= 1.0

        header, rows = read_csv(out / "comparison_sweep.csv")
        assert header == ["step", "epsilon", "empirical_probability",
                          "empirical_markov", "analytic_bound"]
        assert len(rows) == 3
        assert all(r[0] == "30" for r in rows)
        # larger epsilon never raises any of the three curves
        emp = [float(r[2]) for r in rows]
        mar = [float(r[3]) for r in rows]
        assert emp == sorted(emp, reverse=True)
        assert mar == sorted(mar, reverse=True)


ALL_FILES = (
    "sync_trajectory.csv", "sync_snapshots.csv", "async_ensemble.csv",
    "exceedance.csv", "rate_bound.csv", "prob_bound.csv", "certificate.json",
    "comparison.csv", "comparison_sweep.csv",
)


class TestPipeline:
    def test_one_call_writes_what_three_calls_write(self, tmp_path):
        path = write_config(tmp_path)
        together, apart = tmp_path / "together", tmp_path / "apart"
        assert main(["simulate", "analyze", "compare", "--config", path,
                     "--out", str(together)]) == EXIT_OK
        for command in ("simulate", "analyze", "compare"):
            assert main([command, "--config", path,
                         "--out", str(apart)]) == EXIT_OK
        for name in ALL_FILES:
            assert (together / name).read_bytes() == (
                apart / name
            ).read_bytes(), name

    def test_each_stage_computed_once(self, tmp_path, monkeypatch):
        from asyncheat import cli

        calls = {}

        def count(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(cli.sim, "run_ensemble")
        count(cli.analysis, "tail_constants")
        count(cli.analysis, "solve_discrete_lyapunov")
        count(cli.modes, "mode_batches")
        count(cli.modes, "expected_matrix")
        path = write_config(tmp_path)
        assert main(["simulate", "analyze", "verify", "compare",
                     "--config", path, "--out", str(tmp_path / "out")]
                    ) == EXIT_OK
        assert calls["run_ensemble"] == 1
        assert calls["tail_constants"] == 1
        assert 1 <= calls["solve_discrete_lyapunov"] <= 2
        # verify walks the modes once and reads analyze's Lambda
        assert calls["mode_batches"] == 1
        assert calls["expected_matrix"] == 1

    def test_certificate_makes_two_eigensolves(self, monkeypatch):
        """One eigensolve per Lyapunov solve, W~_m's and Lambda's: deflate
        only subtracts, and the certificate is W~_m's stability gate."""
        from asyncheat import cli

        pipe = cli.Pipeline(load_config(SMALL_VERIFY))
        calls = []
        real = np.linalg.eigvals

        def counted(m):
            calls.append(np.shape(m))
            return real(m)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        pipe.certificate
        assert len(calls) == 2

    def test_problem_built_once(self, tmp_path, monkeypatch):
        """load_config builds the one RunConfig that every stage reads."""
        from asyncheat import cli

        built = []
        real = cli.sim.RunConfig

        def counted(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli.sim, "RunConfig", counted)
        path = write_config(tmp_path)
        assert main(["simulate", "analyze", "compare", "--config", path,
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(built) == 1

    def test_stops_at_first_failing_command(self, tmp_path, monkeypatch):
        from asyncheat import analysis, cli

        def exhausted(*args, **kwargs):
            raise analysis.HorizonExhaustedError("never contracted")

        monkeypatch.setattr(cli.analysis, "tail_constants", exhausted)
        path = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["simulate", "analyze", "compare", "--config", path,
                     "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert (out / "exceedance.csv").exists()
        assert not (out / "rate_bound.csv").exists()
        assert not (out / "comparison.csv").exists()


def test_writer_matches_a_csv_module_row_loop(tmp_path):
    """Every CSV of ``simulate analyze compare`` on the small config is,
    byte for byte, the same table written row by row by ``csv.writer``."""
    from asyncheat import analysis, cli

    pipe = cli.Pipeline(load_config(SMALL_VERIFY))
    for command in ("simulate", "analyze", "compare"):
        cli.COMMANDS[command](pipe, str(tmp_path))

    fmt, steps, epsilons = cli._fmt, pipe.problem.steps, pipe.problem.epsilons
    sync, ens = pipe.sync, pipe.ensemble
    cert, contraction, _ = pipe.certificate

    def step_rows(*columns):
        return [[k, *(fmt(c[k]) for c in columns)] for k in range(steps + 1)]

    def eps_rows(*curves):
        return [[k, fmt(eps), *(fmt(c[j][k]) for c in curves)]
                for j, eps in enumerate(epsilons) for k in range(steps + 1)]

    mean_sq, k_fix = ens.mean_sq_error, pipe.cfg.sweep_step
    sq_norms = ens.norms_at[k_fix] ** 2
    compare = ["step", "epsilon", "empirical_probability",
               "empirical_markov", "analytic_bound"]
    rate_bound = analysis.convergence_rate_bound(
        cert, float(np.linalg.norm(pipe.e0)), steps,
        k_const=contraction.k_const)
    tables = {
        "sync_trajectory.csv": (
            ["step", "error_norm", "inf_error"],
            step_rows(sync.error_norms, sync.inf_norms)),
        "sync_snapshots.csv": (
            ["step", "point", "value"],
            [[k, i + 1, fmt(v)] for k in sorted(sync.snapshots)
             for i, v in enumerate(sync.snapshots[k])]),
        "async_ensemble.csv": (
            ["step", "mean_error_norm", "mean_sq_error", "max_inf_error"],
            step_rows(ens.mean_error_norm, mean_sq, ens.max_inf_error)),
        "exceedance.csv": (
            ["step", "epsilon", "empirical_probability"],
            eps_rows(ens.exceedance_table.T)),
        "rate_bound.csv": (["step", "mean_error_bound"],
                           step_rows(rate_bound)),
        "prob_bound.csv": (["step", "epsilon", "bound"],
                           eps_rows(pipe.error_bounds)),
        "comparison.csv": (compare, eps_rows(
            ens.exceedance_table.T,
            [np.minimum(1.0, mean_sq / eps) for eps in epsilons],
            pipe.error_bounds)),
        "comparison_sweep.csv": (compare, [
            [k_fix, fmt(eps), fmt((sq_norms > eps).mean()),
             fmt(min(1.0, mean_sq[k_fix] / eps)),
             fmt(pipe.error_bound(eps, k_fix)[k_fix])]
            for eps in pipe.cfg.sweep_epsilons]),
    }
    for name, (header, rows) in tables.items():
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        assert (tmp_path / name).read_bytes() == want.getvalue().encode(), name


class TestCliParsing:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(SystemExit):
            main(["simulate", "simulat", "--config", path])

    def test_requires_config(self):
        with pytest.raises(SystemExit):
            main(["simulate"])


@pytest.mark.parametrize("module",
                         ["scipy.sparse", "scipy.linalg", "asyncheat._csr"])
def test_import_does_not_load_scipy(module):
    """The CSR kernels load with the first stage that uses them, not with
    the CLI module or the config load (the code perfbench's setup_s
    times)."""
    code = ("import sys, asyncheat.cli as cli; cli.load_config(sys.argv[1]); "
            "print(sys.argv[2] in sys.modules)")
    assert fresh_interpreter(code, SMALL_VERIFY, module).strip() == "False"


def test_verify_and_simulate_do_not_load_scipy_linalg(tmp_path):
    """verify and simulate load no scipy.linalg, and analyze still runs
    after them in the same interpreter."""
    code = (
        "import sys, asyncheat.cli as cli\n"
        "config, out = sys.argv[1:]\n"
        "assert cli.main(['verify', 'simulate', '--config', config,\n"
        "                 '--out', out]) == 0\n"
        "print('scipy.linalg loaded:', 'scipy.linalg' in sys.modules)\n"
        "assert cli.main(['analyze', '--config', config, '--out', out]) == 0\n"
    )
    out = fresh_interpreter(code, SMALL_VERIFY, str(tmp_path))
    assert "scipy.linalg loaded: False" in out.splitlines()
    assert (tmp_path / "certificate.json").exists()


@pytest.mark.parametrize("module", ["scipy.linalg", "scipy.sparse"])
def test_no_command_loads_scipy(module, tmp_path):
    """The whole pipeline runs on numpy's linear algebra and two compiled
    CSR kernels: the Lyapunov solves are squared Smith, the SVDs numpy's,
    and the kernels load without their package. The package still imports
    after them, and makes the kernels' extension its own attribute."""
    code = (
        "import sys, asyncheat.cli as cli\n"
        "config, out, module = sys.argv[1:]\n"
        "assert cli.main(['simulate', 'analyze', 'compare', 'verify',\n"
        "                 '--config', config, '--out', out]) == 0\n"
        "print('loaded:', module in sys.modules)\n"
        "import numpy as np, scipy.sparse\n"
        "x = np.arange(3.0)\n"
        "assert (scipy.sparse.csr_array(np.diag(x)) @ x).tolist() == [0, 1, 4]\n"
        "name = 'scipy.sparse._sparsetools'\n"
        "assert scipy.sparse._sparsetools is sys.modules[name]\n"
    )
    out = fresh_interpreter(code, SMALL_VERIFY, str(tmp_path), module)
    assert "loaded: False" in out.splitlines()
    assert (tmp_path / "certificate.json").exists()
