#!/usr/bin/env python3
"""Benchmark for asyncheat: four workloads run as users run them.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is flagship, ensemble, certify, verify, or all. Each operation runs
the workload's command(s) in a child process: the flagship script
(simulate, analyze, compare) or one ``asyncheat.cli`` subcommand. The load
is a closed loop with one client; the only concurrency is the program's
own (``--workers`` defaults to nproc, plus OpenBLAS threads). Operations
repeat until S seconds have passed and the workload's minimum count ran.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
run's operations: ``wall_s`` (launch to exit, outputs written),
``cpu_s`` and ``peak_rss_mb`` (the child's own rusage) and ``setup_s``
(median of fresh interpreters that import asyncheat and load the config).
With ``--trace 1`` one untraced and one traced operation run, and the
metrics are per layer, from spans that perfbench/tracer.py records: a
function's ``.s`` is its self time, ``cli.<command>.s`` a subcommand's
whole time, and ``trace.overhead_ratio`` the traced over the untraced
wall time, minus 1.

Every CLI command counts as one attempted operation. It fails on a
non-zero exit or a failed output check (see workloads.py); failed /
attempted is printed as ``fail_ratio``. The last stdout line is the JSON
result; the line before it, prefixed ``record``, describes the machine,
the library versions and the generated configs.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

from workloads import WORKLOADS, check_outputs, output_digest, parse_verify

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REQUIRED = ("src/asyncheat/cli.py", "scripts/run_flagship_experiment.py")

BUDGET_S = 165.0  # one invocation must end within 180 s
SETUP_REPEATS = 6  # after one untimed warm-up
SETUP_CODE = "import sys, asyncheat.cli as cli; cli.load_config(sys.argv[1])"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}
SELF_TIMED = (
    "sim.run_ensemble", "sim.run_sync_reference",
    "analysis.tail_constants", "analysis.solve_discrete_lyapunov",
    "analysis.verify_mean_contraction",
    "modes.deflate", "modes.expected_matrix", "modes.build_projector",
    "modes.worst_case_mode", "modes.enumerate_modes",
    "modes.verify_eigenstructure", "modes.enumerated_expected_matrix",
)
COUNTED = ("sim.run_ensemble", "analysis.tail_constants",
           "analysis.solve_discrete_lyapunov", "modes.enumerate_modes",
           "modes.mode_probability")
CPU_TIMED = ("sim.run_ensemble", "analysis.tail_constants")
ALLOC_MEASURED = ("sim.run_ensemble", "modes.enumerate_modes")
COMMANDS = ("simulate", "analyze", "compare", "verify")
PER_LAYER = {
    **{f"{n}.s": "s" for n in SELF_TIMED},
    **{f"{n}.calls": "count" for n in COUNTED},
    **{f"{n}.cpu_s": "s" for n in CPU_TIMED},
    **{f"{n}.peak_alloc_mb": "MB" for n in ALLOC_MEASURED},
    "sim.us_per_run_step": "us",
    "analysis.k0": "count",
    "analysis.us_per_power": "us",
    "modes.us_per_mode": "us",
    "modes.lambda_diff": "abs",
    "modes.prob_sum_err": "abs",
    "grid.s": "s",
    **{f"cli.{c}.s": "s" for c in COMMANDS},
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Op:
    child: Child
    out: str
    problems: dict[str, list[str]]


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return env


def run_child(argv: list[str], log: str, deadline: float) -> Child:
    """Run argv to exit; wall clock from launch, CPU and RSS from wait4.

    The runner blocks in wait4 while the child runs, so it takes no CPU
    from it; a timer kills the child if it is still running at
    ``deadline``.
    """
    with open(log + ".out", "w+", encoding="utf-8") as out, \
            open(log + ".err", "w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        watchdog = threading.Timer(max(deadline - t0, 0.0), os.kill,
                                   (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(code=proc.returncode, wall=wall,
                     cpu=usage.ru_utime + usage.ru_stime,
                     rss_mb=usage.ru_maxrss * 1024 / 1e6,
                     stdout=out.read(), stderr=err.read())


def run_op(workload, cfg, cfg_path, run_dir, deadline, spans=None) -> Op:
    """One operation: the workload's command(s) in a child, then checks."""
    out = tempfile.mkdtemp(prefix="op-", dir=run_dir)
    argv = workload.argv(ROOT, cfg_path, out)
    if spans:
        argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans,
                *argv[1:]]
    child = run_child(argv, out, deadline)
    problems = check_outputs(workload, out, child.stdout, cfg)
    if child.code != 0:
        failing = re.search(r"(\w+) failed with exit code", child.stderr)
        command = failing.group(1) if failing else workload.commands[-1]
        problems.setdefault(command, []).append(
            f"exit code {child.code}: {child.stderr.strip()[-500:]}"
        )
    return Op(child=child, out=out, problems=problems)


def tally(result: Result, op: Op) -> None:
    for command, problems in op.problems.items():
        result.attempted += 1
        result.failed += bool(problems)
        result.errors += [f"{command}: {p}" for p in problems]


def check_repeat(workload, op: Op, digests: set[str]) -> None:
    """Flag an operation whose outputs differ from an earlier one."""
    if not any(op.problems.values()):
        digests.add(output_digest(workload, op.out, op.child.stdout))
        if len(digests) > 1:
            op.problems[workload.commands[0]].append(
                "outputs differ from an earlier repeat of this seed")


def time_setup(result: Result, cfg_path, run_dir, count, deadline):
    """Wall times of ``count`` fresh interpreters loading the config."""
    times = []
    for _ in range(count):
        child = run_child([sys.executable, "-c", SETUP_CODE, cfg_path],
                          os.path.join(run_dir, "setup"), deadline)
        if child.code != 0:
            result.errors.append(f"set-up exit code {child.code}: "
                                 f"{child.stderr.strip()[-500:]}")
        times.append(child.wall)
    return times


def measure(workload, cfg, cfg_path, run_dir, seconds, deadline) -> Result:
    """Operations for at least ``seconds``, with set-up timed around them.

    Half the set-up samples come before the operations and half after, so
    that their median spans the run rather than its first seconds.
    """
    result = Result()
    time_setup(result, cfg_path, run_dir, 1, deadline)  # warm-up, untimed
    setup = time_setup(result, cfg_path, run_dir, SETUP_REPEATS // 2,
                       deadline)
    ops, digests = [], set()
    start = time.perf_counter()
    while True:
        op = run_op(workload, cfg, cfg_path, run_dir, deadline)
        check_repeat(workload, op, digests)
        tally(result, op)
        ops.append(op)
        now = time.perf_counter()
        if len(ops) >= workload.min_ops and now - start >= seconds:
            break
        if now + 1.2 * max(o.child.wall for o in ops) > deadline:
            break
    setup += time_setup(result, cfg_path, run_dir,
                        SETUP_REPEATS - SETUP_REPEATS // 2, deadline)
    result.samples = {
        "wall_s": [o.child.wall for o in ops],
        "cpu_s": [o.child.cpu for o in ops],
        "peak_rss_mb": [o.child.rss_mb for o in ops],
        "setup_s": setup,
    }
    result.metrics = {k: statistics.median(v)
                      for k, v in result.samples.items()}
    return result


def trace(workload, cfg, cfg_path, run_dir, deadline) -> Result:
    """One untraced and one traced operation; per-layer metrics.

    Tracing must not change the outputs, so both operations are checked
    to give the same output hash.
    """
    result = Result()
    plain = run_op(workload, cfg, cfg_path, run_dir, deadline)
    spans_path = os.path.join(run_dir, "spans.json")
    traced = run_op(workload, cfg, cfg_path, run_dir, deadline, spans_path)
    digests = set()
    for op in (plain, traced):
        check_repeat(workload, op, digests)
        tally(result, op)
    try:
        with open(spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)
    except (OSError, ValueError) as exc:
        result.errors.append(f"no spans written: {exc!r}")
        spans = {"spans": 0, "alloc_rerun_s": 0.0, "by_name": {}}
    result.metrics = layer_metrics(spans, cfg, traced, plain)
    return result


def layer_metrics(spans: dict, cfg: dict, traced: Op, plain: Op) -> dict:
    by_name = spans["by_name"]

    def stat(name, key):
        return by_name.get(name, {}).get(key, 0)

    def per_unit(name, units):
        return 1e6 * stat(name, "s") / units if units else 0.0

    m = {f"{n}.s": stat(n, "self_s") for n in SELF_TIMED}
    m.update({f"{n}.calls": stat(n, "calls") for n in COUNTED})
    m.update({f"{n}.cpu_s": stat(n, "cpu_s") for n in CPU_TIMED})
    m.update({f"{n}.peak_alloc_mb": stat(n, "peak_alloc_mb")
              for n in ALLOC_MEASURED})
    ens_calls = stat("sim.run_ensemble", "calls")
    m["sim.us_per_run_step"] = per_unit(
        "sim.run_ensemble",
        ens_calls * cfg.get("ensemble_size", 0) * cfg["steps"])
    try:
        with open(os.path.join(traced.out, "certificate.json"),
                  encoding="utf-8") as fh:
            k0 = json.load(fh)["k0"]
    except (OSError, ValueError, KeyError):
        k0 = 0
    m["analysis.k0"] = k0
    m["analysis.us_per_power"] = per_unit(
        "analysis.tail_constants", stat("analysis.tail_constants", "calls") * k0)
    m["modes.us_per_mode"] = per_unit(
        "modes.verify_eigenstructure",
        stat("modes.verify_eigenstructure", "calls"))
    health = parse_verify(traced.child.stdout)
    m["modes.lambda_diff"] = health[1] if health else 0.0
    m["modes.prob_sum_err"] = health[2] if health else 0.0
    m["grid.s"] = sum(a["self_s"] for n, a in by_name.items()
                      if n.startswith("grid."))
    m.update({f"cli.{c}.s": stat(f"cli.{c}", "s") for c in COMMANDS})
    m["cli.self_s"] = sum(a["self_s"] for n, a in by_name.items()
                          if n.startswith("cli."))
    m["cli.bytes_written"] = sum(
        os.path.getsize(p) for p in glob.glob(os.path.join(traced.out, "*"))
    )
    m["trace.spans"] = spans["spans"]
    m["trace.overhead_ratio"] = (
        (traced.child.wall - spans["alloc_rerun_s"]) / plain.child.wall - 1.0)
    return m


def git_sha() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return sha.stdout.strip() or None


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine_record() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.M)
    caches = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        level = _read(os.path.join(index, "level"))
        if level in ("2", "3"):
            caches[f"l{level}_per_instance"] = _read(os.path.join(index, "size"))
    libs = {}
    for name in ("numpy", "scipy"):
        try:
            module = __import__(name)
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            libs[name] = {"version": module.__version__,
                          "blas": f"{blas['name']} {blas['version']}"}
        except (ImportError, KeyError) as exc:
            libs[name] = repr(exc)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model.group(1) if model else None,
        **caches,
        "python": sys.version.split()[0],
        **libs,
        "threads_env": {k: v for k, v in os.environ.items()
                        if k.endswith("_NUM_THREADS")},
        "git_sha": git_sha(),
    }


def print_metrics(name: str, result: Result, units: dict) -> None:
    ratio = result.failed / result.attempted if result.attempted else 1.0
    print(f"workload {name}: {result.attempted} commands attempted, "
          f"{result.failed} failed")
    for metric, value in result.metrics.items():
        samples = result.samples.get(metric)
        detail = (f"  (median of {len(samples)}: "
                  + " ".join(f"{x:.4g}" for x in samples) + ")"
                  if samples else "")
        print(f"  {metric:<40} {value:.6g} {units[metric]}{detail}")
    print(f"  {'fail_ratio':<40} {ratio:.6g} ratio")
    for error in result.errors:
        print(f"FAIL {name}: {error}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"not an asyncheat checkout, missing {missing}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"seed{args.seed}-", dir=WORK)
    record = {**machine_record(), "seed": args.seed, "workloads": {}}
    total = Result()
    try:
        for name in names:
            workload = WORKLOADS[name]
            cfg = workload.make_config(args.seed)
            text = json.dumps(cfg, indent=1)
            cfg_path = os.path.join(run_dir, f"{name}.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            record["workloads"][name] = {
                "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
                "batch_working_set_mb": workload.batch_working_set_mb(cfg),
            }
            deadline = time.perf_counter() + BUDGET_S
            if args.trace:
                result = trace(workload, cfg, cfg_path, run_dir, deadline)
            else:
                result = measure(workload, cfg, cfg_path, run_dir,
                                 args.seconds, deadline)
            print_metrics(name, result, units)
            total.attempted += result.attempted
            total.failed += result.failed
            total.errors += result.errors
            prefix = f"{name}." if len(names) > 1 else ""
            total.metrics.update(
                {prefix + k: {"value": v, "unit": units[k]}
                 for k, v in result.metrics.items()})
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not total.errors,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": total.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
