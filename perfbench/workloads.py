"""Workload definitions for the asyncheat benchmark: generated configs,
the commands that run them, and the checks on their outputs.

Every config is generated here from the workload seed; the program only
ever sees the written JSON. Each check returns a list of problems, one
string each, so a failed check names what went wrong.
"""

from __future__ import annotations

import csv
import hashlib
import json
import lzma
import math
import os
import random
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")

PAPER_SEED = 20240101
# sim.run_ensemble's default batch size: runs per batch for the record
ENSEMBLE_BATCH = 512

SIMULATE_CSVS = (
    "sync_trajectory.csv",
    "sync_snapshots.csv",
    "async_ensemble.csv",
    "exceedance.csv",
)
# outputs of the synchronous reference, which never reads the seed
SEED_FREE_CSVS = ("sync_trajectory.csv", "sync_snapshots.csv")
ANALYZE_OUTPUTS = ("certificate.json", "rate_bound.csv", "prob_bound.csv")

# certificate fields checked against a bound instead of the golden value:
# both are rounding noise that differs across BLAS builds
CERT_BOUNDS = {"lyapunov_residual": 1e-8,
               "lambda_smallest_singular_value": 1e-12}
CERT_EXACT = ("k0", "dim", "mean_contraction_passed")
REL_TOL = 1e-9
VERIFY_TOL = 1e-12  # the CLI's own gate on Lambda diff and probability sum
VERIFY_LINE = re.compile(
    r"verify: (\d+) modes, Lambda diff (\S+), probability sum (\S+)"
)


def paper_config(seed: int) -> dict:
    """configs/paper.json without its output_dir, ensemble seed varied."""
    return {
        "num_pes": 100, "points_per_pe": 1, "dx": 1.0, "dt": 0.5,
        "alpha": 1.0, "buffer_len": 3, "steps": 10000,
        "seed": PAPER_SEED + seed, "initial": "cos2",
        "u_left": 1.0, "u_right": 0.0, "ensemble_size": 300,
        "epsilons": [0.01, 1.0], "snapshot_steps": [0, 100, 1000, 10000],
        "sweep_step": 9000,
        "sweep_epsilons": [0.001, 0.01, 0.1, 1.0, 10.0],
    }


def ensemble_config(seed: int) -> dict:
    """32 PEs x 16 points, q=4, skewed delays, a seeded smooth profile."""
    rng = random.Random(seed)
    nn = 32 * 16
    amps = [rng.uniform(-0.5, 0.5) / m for m in range(1, 5)]
    initial = [
        0.5 + sum(a * math.sin(m * math.pi * i / (nn - 1))
                  for m, a in enumerate(amps, start=1))
        for i in range(nn)
    ]
    initial[0], initial[-1] = 1.0, 0.0
    return {
        "num_pes": 32, "points_per_pe": 16, "dx": 1.0, "dt": 0.5,
        "alpha": 1.0, "buffer_len": 4, "steps": 600,
        "seed": PAPER_SEED + seed, "initial": initial,
        "u_left": 1.0, "u_right": 0.0, "ensemble_size": 1024,
        "delay_probs": [0.55, 0.25, 0.12, 0.08],
        "epsilons": [0.01, 1.0], "snapshot_steps": [0, 300, 600],
    }


def verify_config(seed: int) -> dict:
    """N=7, q=3: 10 cross-PE edges, 3**10 = 59 049 modes of dim 21."""
    return {
        "num_pes": 7, "points_per_pe": 1, "dx": 1.0, "dt": 0.5,
        "alpha": 1.0, "buffer_len": 3, "steps": 100,
        "seed": PAPER_SEED + seed, "initial": "cos2",
        "mode_cap": 100000,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable[[int], dict]
    commands: tuple[str, ...]   # CLI commands one operation runs
    script: bool                # through run_flagship_experiment.py
    min_ops: int                # operations per measured run, at least

    def argv(self, root: str, config: str, out: str) -> list[str]:
        if self.script:
            script = os.path.join(root, "scripts", "run_flagship_experiment.py")
            return [sys.executable, script, "--config", config, "--out", out]
        return [sys.executable, "-m", "asyncheat.cli", self.commands[0],
                "--config", config, "--out", out]

    def batch_working_set_mb(self, cfg: dict) -> float:
        """Runs per batch x q x Nn x 8 B, for workloads that simulate."""
        if "simulate" not in self.commands:
            return 0.0
        runs = min(cfg["ensemble_size"], ENSEMBLE_BATCH)
        nn = cfg["num_pes"] * cfg["points_per_pe"]
        return runs * cfg["buffer_len"] * nn * 8 / 1e6


WORKLOADS = {
    w.name: w for w in (
        Workload("flagship", paper_config,
                 ("simulate", "analyze", "compare"), True, 1),
        Workload("ensemble", ensemble_config, ("simulate",), False, 3),
        Workload("certify", paper_config, ("analyze",), False, 2),
        Workload("verify", verify_config, ("verify",), False, 2),
    )
}


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def read_csv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _golden_csv(name: str) -> list[list[str]]:
    with lzma.open(os.path.join(GOLDEN, name + ".xz"), "rt",
                   encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _golden_hashes() -> dict[str, str]:
    with open(os.path.join(GOLDEN, "simulator.sha256"), encoding="utf-8") as fh:
        return {name: digest for digest, name in
                (line.split() for line in fh if line.strip())}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def check_certificate(path: str) -> list[str]:
    """k0 and flags exact, two noise fields bounded, the rest 1e-9 rel."""
    with open(path, encoding="utf-8") as fh:
        got = json.load(fh)
    with open(os.path.join(GOLDEN, "certificate.json"), encoding="utf-8") as fh:
        want = json.load(fh)
    if set(got) != set(want):
        return [f"certificate.json keys {sorted(set(got) ^ set(want))} differ"]
    problems = []
    for key, ref in want.items():
        val = got[key]
        if key in CERT_BOUNDS:
            ok = abs(val) <= CERT_BOUNDS[key]
        elif key in CERT_EXACT:
            ok = val == ref
        else:
            ok = _close(val, ref)
        if not ok:
            problems.append(f"certificate.json {key} = {val!r}, golden {ref!r}")
    return problems


def check_bound_csv(path: str) -> list[str]:
    """Same shape and steps as the golden, every float within 1e-9 rel."""
    name = os.path.basename(path)
    got, want = read_csv(path), _golden_csv(name)
    if len(got) != len(want) or got[0] != want[0]:
        return [f"{name}: {len(got)} rows, header {got[0]}; golden "
                f"{len(want)} rows, header {want[0]}"]
    for row, ref in zip(got[1:], want[1:]):
        if row[0] != ref[0] or not all(
            _close(float(a), float(b)) for a, b in zip(row[1:], ref[1:])
        ):
            return [f"{name}: row {row} differs from golden {ref}"]
    return []


def check_analyze(out: str) -> list[str]:
    return (check_certificate(os.path.join(out, "certificate.json"))
            + check_bound_csv(os.path.join(out, "rate_bound.csv"))
            + check_bound_csv(os.path.join(out, "prob_bound.csv")))


def check_simulate_golden(out: str, cfg: dict) -> list[str]:
    """Simulator CSVs byte-identical to the goldens they should match.

    The synchronous reference ignores the seed, so its CSVs match at every
    seed; the ensemble CSVs only at the paper's seed.
    """
    names = SIMULATE_CSVS if cfg["seed"] == PAPER_SEED else SEED_FREE_CSVS
    hashes = _golden_hashes()
    problems = []
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != hashes[name]:
                problems.append(f"{name} differs from the golden bytes")
    return problems


def check_comparison(out: str) -> list[str]:
    """compare's empirical column equals simulate's exceedance table."""
    comp = [row[:3] for row in read_csv(os.path.join(out, "comparison.csv"))]
    exc = read_csv(os.path.join(out, "exceedance.csv"))
    if comp[1:] != exc[1:]:
        return ["comparison.csv empirical_probability != exceedance.csv"]
    return []


def initial_error(cfg: dict) -> tuple[float, float, float]:
    """(||e(0)||^2, ||e(0)||, ||e(0)||_inf) of the augmented error.

    e(0) is the initial profile (endpoints clamped to the boundary values)
    minus the boundary ramp, repeated over the q buffers.
    """
    u = list(cfg["initial"])
    nn = len(u)
    left, right = cfg.get("u_left", 1.0), cfg.get("u_right", 0.0)
    u[0], u[-1] = left, right
    diff = [u[j - 1] - (left * (nn - j) + right * (j - 1)) / (nn - 1)
            for j in range(1, nn + 1)]
    sq = cfg["buffer_len"] * math.fsum(d * d for d in diff)
    return sq, math.sqrt(sq), max(abs(d) for d in diff)


def check_ensemble_row0(out: str, cfg: dict) -> list[str]:
    row = read_csv(os.path.join(out, "async_ensemble.csv"))[1]
    sq, norm, inf = initial_error(cfg)
    got = (float(row[2]), float(row[1]), float(row[3]))
    if row[0] != "0" or not all(
        math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, (sq, norm, inf))
    ):
        return [f"async_ensemble.csv row 0 {row} != e(0) {(norm, sq, inf)}"]
    return []


def parse_verify(stdout: str) -> tuple[int, float, float] | None:
    """(modes, Lambda diff, |probability sum - 1|) from verify's report."""
    m = VERIFY_LINE.search(stdout)
    if m is None:
        return None
    return int(m.group(1)), float(m.group(2)), abs(float(m.group(3)) - 1.0)


def check_verify(stdout: str, cfg: dict) -> list[str]:
    parsed = parse_verify(stdout)
    if parsed is None or "verify: all checks passed" not in stdout:
        return ["verify did not report passing checks"]
    modes, lam_diff, prob_err = parsed
    # two directed edges per PE boundary, minus the two whose updating
    # point is a Dirichlet endpoint when PEs hold a single point
    edges = 2 * (cfg["num_pes"] - 1) - (2 if cfg["points_per_pe"] == 1 else 0)
    problems = []
    if modes != cfg["buffer_len"] ** edges:
        problems.append(f"verify enumerated {modes} modes")
    if not lam_diff <= VERIFY_TOL:
        problems.append(f"Lambda diff {lam_diff} above {VERIFY_TOL}")
    if not prob_err <= VERIFY_TOL:
        problems.append(f"probability sum off by {prob_err}")
    return problems


def check_outputs(workload: Workload, out: str, stdout: str,
                  cfg: dict) -> dict[str, list[str]]:
    """Problems per CLI command of one operation."""
    checks = {
        "simulate": lambda: (
            check_simulate_golden(out, cfg) if workload.name == "flagship"
            else check_ensemble_row0(out, cfg)),
        "analyze": lambda: check_analyze(out),
        "compare": lambda: check_comparison(out),
        "verify": lambda: check_verify(stdout, cfg),
    }
    problems = {}
    for command in workload.commands:
        try:
            problems[command] = checks[command]()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems[command] = [f"{command} outputs unreadable: {exc!r}"]
    return problems


def output_digest(workload: Workload, out: str, stdout: str) -> str:
    """Hash of the outputs that must repeat exactly for one seed."""
    if workload.name == "verify":
        return hashlib.sha256(stdout.encode()).hexdigest()
    names = ANALYZE_OUTPUTS if workload.name == "certify" else SIMULATE_CSVS
    return file_digest(os.path.join(out, n) for n in names)
