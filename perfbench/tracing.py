"""Outside-in tracing of the feigenbaum layers.

Each layer is a module of the package, and its public functions are
wrapped where consumer modules bind them: the package uses
``from .x import y``, so ``lu_factor`` lives under the names
``numerics.lu_factor``, ``solver.lu_factor`` and ``bases.lu_factor`` and
every one of those bindings must be replaced for the calls through it to
be seen.  Methods are wrapped on their class.

A wrapped call records one span (name, start, end, parent) in memory.
Nothing is written until the caller asks for the spans, and the wrappers
are removed again when the :func:`traced` block exits, so untraced
passes run the unmodified program.  A target that no longer exists
raises, so a renamed function cannot silently read zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time


def _apply_terms(args, kwargs, result):
    # apply_at_points(variant, g, points, ctx): g(g(y)) per point
    g, points = args[1], args[2]
    return len(points) * 2 * len(g.coeffs)


def _linearized_terms(args, kwargs, result):
    # linearized_apply_at(spec, g, h, points, ctx): per point g(y), g'(g(y)),
    # h(y), h(g(y)); the full derivative adds g(g(y)), g'(g(y)), g'(y)
    spec, g, h, points = args[0], args[1], args[2], args[3]
    m = len(g.coeffs)
    mp_ = max(m - 1, 1)
    per_point = m + mp_ + 2 * len(h.coeffs)
    if spec.linearization.value == "full":
        per_point += m + 2 * mp_
    return len(points) * per_point


def _newton_iterations(args, kwargs, result):
    return len(result.iteration_history)


# (metric prefix, module, attribute path, computed counters)
# A counter maps (args, kwargs, result) of one call to a number that is
# summed over calls.  clenshaw_terms is computed from the arguments:
# points x Clenshaw evaluations per point x series length.
TARGETS = (
    ("cli.main", "cli", "main", {}),
    ("cli.serialize", "cli", "_emit", {}),
    ("cli.serialize", "spectrum", "SpectrumReport.to_json_dict", {}),
    ("solver.newton_solve", "solver", "newton_solve",
     {"solver.newton_iterations": _newton_iterations}),
    ("operators.apply_at_points", "operators", "apply_at_points",
     {"operators.apply_at_points.clenshaw_terms": _apply_terms}),
    ("operators.linearized_apply_at", "operators", "linearized_apply_at",
     {"operators.linearized_apply_at.clenshaw_terms": _linearized_terms}),
    ("chebyshev.grid_to_series", "chebyshev", "grid_to_series", {}),
    ("chebyshev.series_derivative", "chebyshev", "series_derivative", {}),
    ("numerics.eig_dense", "numerics", "eig_dense",
     {"numerics.eig_dense.n": lambda args, kwargs, result: len(args[0])}),
    ("numerics.lu_factor", "numerics", "lu_factor", {}),
    ("numerics.lu_solve_factored", "numerics", "lu_solve_factored", {}),
    ("numerics.solve_linear_exact", "numerics", "solve_linear_exact", {}),
    ("bases.build_basis", "bases", "build_basis", {}),
    ("bases.to_series", "bases", "Discretization.to_series", {}),
    ("spectrum.spectrum_at", "spectrum", "spectrum_at", {}),
    ("spectrum.eigenfunction_parity", "spectrum", "eigenfunction_parity", {}),
    ("spectrum.classify_spectrum", "spectrum", "classify_spectrum", {}),
    ("families.family_spectrum_check", "families", "family_spectrum_check", {}),
)


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    def wrap(self, name, fn, counters):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([name, time.perf_counter(), None, parent])
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[idx][2] = time.perf_counter()
            for key, count in counters.items():
                tracer.counts[key] = tracer.counts.get(key, 0) + count(args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds, plus the
        computed counters.  Self time is the span's duration minus the
        part covered by its child spans; calls run on one thread, so the
        children of one span never overlap."""
        out = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start)
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + (
                end - start - child_time[i])
        out.update(self.counts)
        # eig_dense.n is the matrix order: the mean over calls, not the sum
        if "numerics.eig_dense.n" in out:
            out["numerics.eig_dense.n"] //= out["numerics.eig_dense.calls"]
        return out

    def records(self):
        """Spans as dicts, for writing out once the run ends."""
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


def metric_names() -> set:
    """Every per-layer name a traced pass can report."""
    names = {counter for *_, counters in TARGETS for counter in counters}
    for name, *_ in TARGETS:
        names |= {name + ".calls", name + ".s", name + ".self_s"}
    return names


def package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "feigenbaum" or name.startswith("feigenbaum."))]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install span-recording wrappers for the block, then restore."""
    restore = []
    try:
        for name, mod_name, path, counters in TARGETS:
            owner = importlib.import_module("feigenbaum." + mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                raise LookupError("trace: feigenbaum.%s.%s not found; %s cannot be recorded"
                                  % (mod_name, path, name))
            wrapped = tracer.wrap(name, original, counters)
            if outer:
                restore.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, key, original))
                        setattr(mod, key, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
