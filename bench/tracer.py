"""Per-layer call counts and self times, recorded from outside the package.

The layers are the package's modules.  ``Tracer.install`` wraps every
public function of each layer and rebinds the wrapper under every name
that refers to the function in any loaded ``mpsys`` module (the package
itself included).  The modules import each other with ``from .x import f``,
so rebinding only ``mpsys.x.f`` would miss the calls that go through the
importing module's copy of the name.

A wrapper opens a span on entry and closes it on exit.  A span's self time
is its duration minus the durations of the spans opened inside it, so the
self times of all spans add up to the time spent inside the package.  Spans
are folded into per-function totals as they close; only the open ones are
kept, on a stack.  Calls between layers are also counted per
(caller, callee) pair, and a few functions have an observer that reads
their arguments or result for a derived counter (see ``OBSERVERS``).

Functions are wrapped, not generators: a public function that returns a
generator is charged only for creating it.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter

PACKAGE = "mpsys"
LAYERS = ("subspaces", "systems", "cascade", "factorization", "agler",
          "serialization", "cli")


def _candidates_generated(counters, args, kwargs, result):
    counters["factorization.candidates_generated"] += len(result)


def _problem2_solved(counters, args, kwargs, result):
    counters["factorization.problem2_solved"] += result is not None


def _bytes_written(counters, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counters["serialization.bytes_written"] += os.path.getsize(path)


def _agler_trials(counters, args, kwargs, result):
    counters["agler.trials"] += result.trials


OBSERVERS = {
    "factorization.invariant_subspace_candidates": _candidates_generated,
    "factorization.solve_problem2": _problem2_solved,
    "serialization.save_json": _bytes_written,
    "agler.agler_test": _agler_trials,
}


def public_functions(module) -> dict:
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {name: fn for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    """Span recorder for the public functions of the ``mpsys`` layers.

    Use as a context manager: the functions are wrapped on entry and the
    originals restored on exit.  ``reset`` clears the totals between
    passes.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.edges: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list = []
        self._rebound: list = []
        self.wrapped: dict = {}

    def reset(self) -> None:
        for totals in (self.calls, self.self_s, self.edges, self.counters):
            totals.clear()

    def _wrap(self, key: str, fn):
        stack = self._stack
        calls, self_s, edges = self.calls, self.self_s, self.edges
        observe = OBSERVERS.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [key, 0.0]  # [span name, time inside child spans]
            caller = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[key] += 1
                self_s[key] += elapsed - frame[1]
                edges[(caller, key)] += 1
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        by_id = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in public_functions(module).items():
                key = f"{layer}.{name}"
                by_id[id(fn)] = self._wrap(key, fn)
                self.wrapped[key] = fn
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    setattr(module, name, wrapper)
                    self._rebound.append((module, name, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, value in reversed(self._rebound):
            setattr(module, name, value)
        self._rebound.clear()

    def layer_self_s(self) -> dict:
        totals = {layer: 0.0 for layer in LAYERS}
        for key, seconds in self.self_s.items():
            totals[key.split(".", 1)[0]] += seconds
        return totals

    def metrics(self) -> dict:
        """Every per-function and per-layer figure of the current totals."""
        out = {}
        for key in self.wrapped:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
        for layer, seconds in self.layer_self_s().items():
            out[f"{layer}.self_s"] = seconds
        generated = self.counters["factorization.candidates_generated"]
        trials = self.counters["agler.trials"]
        out.update({
            "factorization.candidates_generated": generated,
            "factorization.candidates_tested": self.edges[
                ("factorization.solve_problem2", "cascade.check_condition_ii")],
            "factorization.useful_ratio":
                self.counters["factorization.problem2_solved"] / generated
                if generated else 0.0,
            "agler.trials": trials,
            "agler.evals_per_trial":
                self.calls["agler.eval_at_tuple"] / trials if trials else 0.0,
            "serialization.bytes_written": self.counters["serialization.bytes_written"],
        })
        return out
