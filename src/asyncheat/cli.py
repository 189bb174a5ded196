"""Command-line interface: JSON experiment config in, CSV artifacts out.

Commands (one or more per call, run in order over one ``Pipeline``, so
each stage is computed at most once per call):
  simulate  seeded ensemble + synchronous reference -> trajectory CSVs
  analyze   Lyapunov certificate and bounds from the worst-case mode only
  verify    enumeration-based cross checks (small systems)
  compare   empirical exceedance vs Markov curve vs analytic bound

Flags: ``--config`` (required) and ``--out``, which overrides the config's
``output_dir``. Everything else is a config key. ``load_config`` is the
one place that turns the JSON into domain objects; it builds them once and
refuses every invalid value before any output directory is made.

Exit codes: 0 success, 2 config error, 3 numerical-verification failure,
4 I/O error. Every failure is one JSON line on stderr, printed by ``main``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import analysis, grid, modes, sim

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class VerificationFailure(RuntimeError):
    """A numerical cross-check failed."""


_REQUIRED_KEYS = {"num_pes", "dx", "dt", "alpha", "buffer_len", "steps", "seed"}
_OPTIONAL_KEYS = {
    "points_per_pe", "initial", "u_left", "u_right", "ensemble_size",
    "epsilons", "delay_probs", "snapshot_steps", "sweep_step",
    "sweep_epsilons", "mode_cap", "output_dir",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: the problem, and the settings only the CLI
    reads. ``sweep_step`` is already clamped to the problem's steps."""

    problem: sim.RunConfig
    ensemble_size: int
    snapshot_steps: tuple[int, ...]
    sweep_step: int
    sweep_epsilons: tuple[float, ...]
    mode_cap: int
    output_dir: str | None


def _integral(value, key: str) -> int:
    """``value`` as an int; a non-integral number is refused, not truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _real(value, key: str) -> float:
    """``value`` as a float; only finite JSON numbers are accepted, so
    strings, booleans, NaN and infinities are refused, not converted."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _reals(values, key: str) -> tuple[float, ...]:
    """A non-empty list of finite numbers as a tuple of floats."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{key} must be a non-empty list, got {values!r}")
    return tuple(_real(v, key) for v in values)


def load_config(path: str) -> ExperimentConfig:
    """Parse and strictly validate a JSON experiment config, building its
    domain objects once; every invalid value raises ``ConfigError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(raw)
    if missing:
        raise ConfigError(f"missing required config keys: {sorted(missing)}")

    try:
        spec = grid.GridSpec(
            num_pes=_integral(raw["num_pes"], "num_pes"),
            points_per_pe=_integral(raw.get("points_per_pe", 1),
                                    "points_per_pe"),
            dx=_real(raw["dx"], "dx"),
            dt=_real(raw["dt"], "dt"),
            alpha=_real(raw["alpha"], "alpha"),
        )
        aspec = modes.AugmentedSpec(
            grid=spec, buffer_len=_integral(raw["buffer_len"], "buffer_len")
        )
        if raw.get("delay_probs") is None:
            dist = modes.SwitchingDistribution.uniform(aspec)
        else:
            dist = modes.SwitchingDistribution.from_delay_probs(
                aspec, _reals(raw["delay_probs"], "delay_probs")
            )
        bc = grid.BoundaryConditions(
            u_left=_real(raw.get("u_left", 1.0), "u_left"),
            u_right=_real(raw.get("u_right", 0.0), "u_right"),
        )
        initial = raw.get("initial", "cos2")
        if initial == "cos2":
            u0 = grid.cos2_initial_condition(spec)
        elif initial == "ramp":
            u0 = grid.steady_state_profile(spec, bc)
        elif isinstance(initial, list):
            u0 = np.array(_reals(initial, "initial"))
        else:
            raise ConfigError(
                f"initial must be 'cos2', 'ramp' or a vector, got {initial!r}"
            )
        steps = _integral(raw["steps"], "steps")
        problem = sim.RunConfig(
            aspec=aspec,
            dist=dist,
            initial=u0,
            bc=bc,
            steps=steps,
            seed=_integral(raw["seed"], "seed"),
            epsilons=_reals(raw.get("epsilons", [0.01, 1.0]), "epsilons"),
        )
        ensemble_size = _integral(raw.get("ensemble_size", 300),
                                  "ensemble_size")
        snapshot_steps = raw.get("snapshot_steps")
        if snapshot_steps is None:
            snapshot_steps = sorted({0, steps // 2, steps})
        snapshot_steps = tuple(_integral(s, "snapshot_steps")
                               for s in snapshot_steps)
        sweep_step = _integral(raw.get("sweep_step", 9000), "sweep_step")
        sweep_eps = raw.get("sweep_epsilons")
        sweep_epsilons = (problem.epsilons if sweep_eps is None
                          else _reals(sweep_eps, "sweep_epsilons"))
        mode_cap = _integral(raw.get("mode_cap", 100_000), "mode_cap")
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc

    output_dir = raw.get("output_dir")
    if problem.seed < 0:
        raise ConfigError("seed must be >= 0")
    if ensemble_size < 1:
        raise ConfigError("ensemble_size must be >= 1")
    if not all(0 <= s <= steps for s in snapshot_steps):
        raise ConfigError(f"snapshot_steps must lie in [0, {steps}]")
    if sweep_step < 0:
        raise ConfigError("sweep_step must be >= 0")
    if not all(e > 0 for e in sweep_epsilons):
        raise ConfigError("sweep_epsilons must be positive")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {output_dir!r}")
    return ExperimentConfig(
        problem=problem,
        ensemble_size=ensemble_size,
        snapshot_steps=snapshot_steps,
        sweep_step=min(sweep_step, steps),
        sweep_epsilons=sweep_epsilons,
        mode_cap=mode_cap,
        output_dir=output_dir,
    )


class Pipeline:
    """The stages of one CLI call, each computed on first use and kept.

    The commands of one call are writers over the same stages, so
    ``simulate analyze compare`` runs one ensemble and one tail walk.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.problem = cfg.problem
        self.aspec = cfg.problem.aspec

    @cached_property
    def sync(self) -> sim.Trajectory:
        return sim.run_sync_reference(
            self.problem, snapshot_steps=self.cfg.snapshot_steps
        )

    @cached_property
    def ensemble(self) -> sim.EnsembleResult:
        return sim.run_ensemble(
            self.problem, self.cfg.ensemble_size,
            workers=os.cpu_count() or 1, norm_steps=(self.cfg.sweep_step,),
        )

    @cached_property
    def e0(self) -> np.ndarray:
        """e(0) = X(0) - psi X(0) in the augmented space."""
        q = self.aspec.buffer_len
        ramp = grid.steady_state_profile(self.aspec.grid, self.problem.bc)
        return np.tile(self.problem.initial, q) - np.tile(ramp, q)

    @cached_property
    def proj(self) -> modes.SteadyStateProjector:
        return modes.build_projector(self.aspec)

    @cached_property
    def lam(self) -> np.ndarray:
        """The expected deflated mode Lambda, without enumeration."""
        return modes.expected_matrix(self.aspec, self.problem.dist, self.proj)

    @cached_property
    def certificate(self):
        """(Lyapunov certificate of W~_m, mean contraction, tail constants)."""
        wtm = modes.deflate(modes.worst_case_mode(self.aspec), self.proj)
        cert = analysis.solve_discrete_lyapunov(wtm)
        contraction = analysis.verify_mean_contraction(self.lam, cert)
        return cert, contraction, analysis.tail_constants(wtm)

    def error_bound(self, eps: float, steps: int) -> np.ndarray:
        return analysis.error_probability_bound(
            self.certificate[2], self.e0, eps, steps
        )

    @cached_property
    def error_bounds(self) -> list[np.ndarray]:
        """The bound on Pr(||e(k)||^2 > eps) over all steps, per epsilon."""
        steps = self.problem.steps
        return [self.error_bound(e, steps) for e in self.problem.epsilons]


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(outdir: str, name: str, header, *columns) -> None:
    """Write the table whose columns are ``columns``, one row per index.

    An integer column prints by ``str`` and any other by ``_fmt``. No
    cell holds a comma, quote or newline, so a row is its cells joined by
    commas; the rows are zipped lazily.
    """
    cells = [
        map(str if c.dtype.kind in "iu" else _fmt, c.tolist())
        for c in map(np.asarray, columns)
    ]
    with open(os.path.join(outdir, name), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _eps_major(steps: int, epsilons, *curves):
    """The columns (step, epsilon, *curves) of an epsilon-major table;
    ``curve[j]`` is a curve over k = 0..steps at ``epsilons[j]``."""
    return (np.tile(np.arange(steps + 1), len(epsilons)),
            np.repeat(epsilons, steps + 1),
            *(np.ravel(c) for c in curves))


_COMPARE_HEADER = ["step", "epsilon", "empirical_probability",
                   "empirical_markov", "analytic_bound"]


def cmd_simulate(pipe: Pipeline, outdir: str) -> None:
    steps, sync, ens = pipe.problem.steps, pipe.sync, pipe.ensemble
    _write_csv(outdir, "sync_trajectory.csv",
               ["step", "error_norm", "inf_error"],
               range(steps + 1), sync.error_norms, sync.inf_norms)
    if sync.snapshots:
        keys = sorted(sync.snapshots)
        values = np.array([sync.snapshots[k] for k in keys])
        points = values.shape[1]
        _write_csv(outdir, "sync_snapshots.csv", ["step", "point", "value"],
                   np.repeat(keys, points),
                   np.tile(np.arange(1, points + 1), len(keys)),
                   values.ravel())
    mean_norm = ens.mean_error_norm
    _write_csv(
        outdir, "async_ensemble.csv",
        ["step", "mean_error_norm", "mean_sq_error", "max_inf_error"],
        range(steps + 1), mean_norm, ens.mean_sq_error, ens.max_inf_error,
    )
    _write_csv(outdir, "exceedance.csv",
               ["step", "epsilon", "empirical_probability"],
               *_eps_major(steps, pipe.problem.epsilons,
                           ens.exceedance_table.T))
    print(
        f"simulate: {pipe.cfg.ensemble_size} runs x {steps} steps, "
        f"final mean error norm {mean_norm[-1]:.3e}"
    )


def cmd_analyze(pipe: Pipeline, outdir: str) -> None:
    problem = pipe.problem
    cert, contraction, tc = pipe.certificate
    # the rate comes from P_m and the prefactor from Lambda's own P
    if contraction.lambda_max_p > cert.lambda_max:
        raise VerificationFailure(
            f"mean-rate premise fails: lambda_max(P) of Lambda "
            f"{contraction.lambda_max_p!r} > lambda_max(P_m) "
            f"{cert.lambda_max!r}"
        )
    e0_norm = float(np.linalg.norm(pipe.e0))
    bound = analysis.convergence_rate_bound(
        cert, e0_norm, problem.steps, k_const=contraction.k_const
    )
    _write_csv(outdir, "rate_bound.csv", ["step", "mean_error_bound"],
               range(problem.steps + 1), bound)
    _write_csv(outdir, "prob_bound.csv", ["step", "epsilon", "bound"],
               *_eps_major(problem.steps, problem.epsilons,
                           pipe.error_bounds))
    certificate = {
        "dim": pipe.aspec.dim,
        "lambda_max_p_m": cert.lambda_max,
        "lambda_min_p_m": cert.lambda_min,
        "lyapunov_residual": cert.residual,
        "mean_rate": cert.rate,
        "mean_k_const": contraction.k_const,
        "mean_contraction_margin": contraction.margin,
        "mean_contraction_passed": contraction.passed,
        "lambda_smallest_singular_value": contraction.smallest_singular_value,
        "k0": tc.k0,
        "c0": tc.c0,
        "c1": tc.c1,
        "second_moment_rate": tc.second_moment_rate,
        "initial_error_norm": e0_norm,
    }
    with open(
        os.path.join(outdir, "certificate.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(certificate, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"analyze: rate {cert.rate:.10f}, K {contraction.k_const:.6g}, "
        f"k0 {tc.k0}, c0 {tc.c0:.6g}, c1 {tc.c1:.6g}"
    )


_SHOWN_MODES = 5  # delay patterns named per failing per-mode check


def cmd_verify(pipe: Pipeline, outdir: str) -> None:
    aspec, dist, proj = pipe.aspec, pipe.problem.dist, pipe.proj
    # per-mode checks: the count of failing modes and the first few
    checks = ("eigenstructure failed", "inf norm != 1")
    counts, shown = dict.fromkeys(checks, 0), {check: [] for check in checks}
    prob_sum = 0.0
    lam_enum = np.zeros((aspec.dim, aspec.dim))
    for delays, w in modes.mode_batches(aspec, pipe.cfg.mode_cap):
        report = modes.verify_eigenstructure(w, proj)
        for check, bad in zip(checks, (~report.passed,
                                       report.inf_norm != 1.0)):
            counts[check] += int(bad.sum())
            room = _SHOWN_MODES - len(shown[check])
            shown[check] += delays[bad][:room].tolist()
        pi = modes.mode_probability(delays, dist)
        s = pi.sum()
        prob_sum += s
        # einsum, not a threaded BLAS tensordot: OpenBLAS's idle workers
        # would spin through the next chunk's eigvals (~65% more CPU)
        lam_enum += np.einsum("m,mij->ij", pi, w) - s * proj.psi

    failures = [
        f"{check} for {counts[check]} modes, first delays "
        + ", ".join(str(tuple(d)) for d in shown[check])
        for check in checks if counts[check]
    ]
    lam_diff = float(np.max(np.abs(pipe.lam - lam_enum)))
    if lam_diff > 1e-12:
        failures.append(f"factorized vs enumerated Lambda differ by {lam_diff}")
    if abs(prob_sum - 1.0) > 1e-12:
        failures.append(f"mode probabilities sum to {prob_sum}")

    rng = np.random.default_rng(pipe.problem.seed)
    q, nn = aspec.buffer_len, aspec.grid.total_points
    for _ in range(20):
        history = rng.standard_normal((q, nn))
        delays = np.array(np.unravel_index(
            rng.integers(aspec.mode_count), (q,) * aspec.num_edges))
        stepped = sim.async_step(history, delays, aspec).ravel()
        direct = modes.mode_product(modes.build_mode_matrix(aspec, delays),
                                    history.ravel(), q)
        if not np.array_equal(stepped, direct):
            failures.append("simulator/matrix mismatch for delays "
                            f"{tuple(delays.tolist())}")
            break

    print(f"verify: {aspec.mode_count} modes, Lambda diff {lam_diff:.3e}, "
          f"probability sum {prob_sum:.15f}")
    if failures:
        raise VerificationFailure("; ".join(failures))
    print("verify: all checks passed")


def cmd_compare(pipe: Pipeline, outdir: str) -> None:
    epsilons, ens = pipe.problem.epsilons, pipe.ensemble
    mean_sq = ens.mean_sq_error
    _write_csv(
        outdir, "comparison.csv", _COMPARE_HEADER,
        *_eps_major(pipe.problem.steps, epsilons, ens.exceedance_table.T,
                    [np.minimum(1.0, mean_sq / eps) for eps in epsilons],
                    pipe.error_bounds),
    )
    k_fix, sweep = pipe.cfg.sweep_step, pipe.cfg.sweep_epsilons
    sq_norms = ens.norms_at[k_fix] ** 2
    _write_csv(
        outdir, "comparison_sweep.csv", _COMPARE_HEADER,
        np.full(len(sweep), k_fix), sweep,
        [(sq_norms > eps).mean() for eps in sweep],
        [min(1.0, mean_sq[k_fix] / eps) for eps in sweep],
        [pipe.error_bound(eps, k_fix)[k_fix] for eps in sweep],
    )
    print(f"compare: wrote comparison curves for {len(epsilons)} epsilons "
          f"and a sweep at step {k_fix}")


COMMANDS = {
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "compare": cmd_compare,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asyncheat",
        description=(
            "Asynchronous heat-equation simulation and switched-system "
            "analysis"
        ),
    )
    parser.add_argument(
        "commands", nargs="+", choices=COMMANDS, metavar="command",
        help=f"one or more of {', '.join(COMMANDS)}; run in order over "
             "one shared pipeline",
    )
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides output_dir)")
    return parser


def _error(kind: str, exc: Exception, code: int) -> int:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        return _error("config", exc, EXIT_CONFIG)

    outdir = args.out or cfg.output_dir or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        return _error("io", exc, EXIT_IO)

    pipe = Pipeline(cfg)
    try:
        for command in args.commands:
            COMMANDS[command](pipe, outdir)
        return EXIT_OK
    except modes.ModeCountError as exc:
        return _error("config", exc, EXIT_CONFIG)
    except (
        analysis.LyapunovError,
        analysis.HorizonExhaustedError,
        VerificationFailure,
    ) as exc:
        return _error("numerical", exc, EXIT_NUMERICAL)
    except OSError as exc:
        return _error("io", exc, EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
