"""Run an asyncheat entry point with spans around its layer calls.

Usage:
    python3 perfbench/tracer.py SPANS_JSON SCRIPT [ARGS...]
    python3 perfbench/tracer.py SPANS_JSON -m asyncheat.cli [ARGS...]

The first form runs SCRIPT as ``__main__``; the second calls
``asyncheat.cli.main(ARGS)``, which is what ``python -m asyncheat.cli``
does. Before that, every public function of ``grid``, ``modes``, ``sim``
and ``analysis`` that ``cli.py`` calls is wrapped, wherever a module
holds a reference to it, so calls between layers are traced too, and
``cli.main`` is wrapped as one span per subcommand (``cli.<command>``).

Each call records a span (id, name, start, end, parent, process CPU) in
memory. At exit the spans are aggregated per name in one pass and
written to SPANS_JSON as ``{name: {calls, s, self_s, cpu_s,
peak_alloc_mb}}``, where self time is a span's duration minus its
children's. The functions in ``ALLOC_SPANS`` are then called once more
with their first call's arguments under tracemalloc, after the entry
point has exited, so that no timed span pays tracemalloc's cost; that
call's peak is their ``peak_alloc_mb`` and its duration is written as
``alloc_rerun_s``. The process exits with the entry point's exit code.
"""

from __future__ import annotations

import ast
import inspect
import itertools
import json
import runpy
import sys
import threading
import time
import tracemalloc
from functools import wraps

LAYERS = ("grid", "modes", "sim", "analysis")
ALLOC_SPANS = frozenset({"sim.run_ensemble", "modes.enumerate_modes"})


class Tracer:
    """Span recorder; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans = []
        self.first_calls = {}  # ALLOC_SPANS name -> (fn, args, kwargs)
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn):
        """``name`` is a span name or a function of the call's arguments."""
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            span_id = next(tracer._ids)
            stack.append(span_id)
            if span in ALLOC_SPANS:
                tracer.first_calls.setdefault(span, (fn, args, kwargs))
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1, c1 = time.perf_counter(), time.process_time()
                stack.pop()
                tracer.spans.append((span_id, span, t0, t1, parent, c1 - c0))

        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def aggregate(self) -> dict:
        """Per-name totals; child time is summed per parent in one pass."""
        child = {}
        for _, _, t0, t1, parent, _ in self.spans:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
        out = {}
        for span_id, name, t0, t1, _, cpu in self.spans:
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "cpu_s": 0.0, "peak_alloc_mb": 0.0})
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child.get(span_id, 0.0)
            agg["cpu_s"] += cpu
        return out

    def allocation_peaks(self) -> dict[str, float]:
        """Repeat each first call of ALLOC_SPANS under tracemalloc; MB."""
        peaks = {}
        for name, (fn, args, kwargs) in self.first_calls.items():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        return peaks


def layer_calls(source: str) -> set[tuple[str, str]]:
    """(layer, attribute) pairs referenced as ``layer.attr`` in source."""
    return {
        (node.value.id, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in LAYERS
    }


def _command_name(argv=None):
    args = sys.argv[1:] if argv is None else argv
    return f"cli.{args[0] if args else 'main'}"


def install(tracer: Tracer):
    """Wrap the layer functions cli calls, and cli.main; return cli."""
    import asyncheat
    from asyncheat import analysis, cli, grid, modes, sim

    layers = {"grid": grid, "modes": modes, "sim": sim, "analysis": analysis}
    wrapped = {cli.main: tracer.wrap(_command_name, cli.main)}
    for layer, attr in layer_calls(inspect.getsource(cli)):
        fn = getattr(layers[layer], attr, None)
        if inspect.isfunction(fn):
            wrapped[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    for module in (asyncheat, cli, *layers.values()):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])
    return cli


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, entry, *args = sys.argv[1:]
    tracer = Tracer()
    cli = install(tracer)
    if entry == "-m":
        code = cli.main(args[1:])
    else:
        sys.argv = [entry, *args]
        try:
            runpy.run_path(entry, run_name="__main__")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    by_name = tracer.aggregate()
    t0 = time.perf_counter()
    if code == 0:
        for name, peak in tracer.allocation_peaks().items():
            by_name[name]["peak_alloc_mb"] = peak
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": len(tracer.spans),
                   "alloc_rerun_s": time.perf_counter() - t0,
                   "by_name": by_name}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
