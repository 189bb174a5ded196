import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
        assert cfg.points_per_pe == 1
        assert cfg.u_left == 1.0 and cfg.u_right == 0.0
        assert cfg.initial == "cos2"
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
        assert cfg.initial == [1.0, 0.7, 0.3, 0.0]

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
        path = write_config(tmp_path, {"num_pes": 12, "buffer_len": 3})
        code = main(["verify", "--config", path, "--cap", "100"])
        assert code == EXIT_CONFIG

    def test_mode_cap_zero_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(["verify", "--config", path, "--cap", "0"])
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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_exit_2(self, tmp_path, capsys, workers):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["simulate", "--config", path, "--out", str(out),
                     "--workers", workers])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert "--workers" in err["message"]

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
        main(["simulate", "--config", path, "--out", str(out2), "--workers", "4"])
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

    def test_enumerates_modes_once(self, tmp_path, monkeypatch):
        """verify holds no mode list: it streams bounded chunks."""
        from asyncheat import cli

        calls, sizes = [], []
        real_list = cli.modes.enumerate_modes
        real_batches = cli.modes.mode_batches

        def counted(*args, **kwargs):
            calls.append(1)
            return real_list(*args, **kwargs)

        def batches(*args, **kwargs):
            for delays, w in real_batches(*args, **kwargs):
                sizes.append(len(w))
                yield delays, w

        monkeypatch.setattr(cli.modes, "enumerate_modes", counted)
        monkeypatch.setattr(cli.modes, "mode_batches", batches)
        path = write_config(tmp_path)
        assert main(["verify", "--config", path]) == EXIT_OK
        assert calls == []
        assert sizes and max(sizes) <= cli.modes._CHUNK_MODES


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
        path = write_config(tmp_path)
        assert main(["simulate", "analyze", "compare", "--config", path,
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert calls["run_ensemble"] == 1
        assert calls["tail_constants"] == 1
        assert 1 <= calls["solve_discrete_lyapunov"] <= 2

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


def test_import_does_not_load_scipy_sparse():
    """scipy.sparse loads with the tail walk, not with the CLI module."""
    src = str(Path(asyncheat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = "import sys, asyncheat.cli; print('scipy.sparse' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
