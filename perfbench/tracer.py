"""Per-layer tracing of fanokit from outside the package.

Tracer.install() replaces the public functions of every layer module with
wrappers that record a span per call, in every fanokit module namespace that
holds the function (modules bind names at import, so patching the defining
module alone would miss `from .distributions import event_probability`).
The hot scalar kernels that verify and relations call by module-global name
get lighter wrappers that keep a count and a total time, never a span: a
sweep makes millions of those calls. Tracer.restore() puts every original
object back.

A layer's self time is the time its spans cover minus the time covered by
their child spans; kernel time counts for the kernel's layer and as child
time of the enclosing span. Calls made from inside a kernel (binary_entropy
from the bound right-hand sides, say) are not traced apart: they belong to
the kernel, which keeps the cost of tracing a sweep bounded.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "jsonio", "distributions", "divergences", "bounds",
          "relations", "chains", "verify")

# kernel -> (its layer, the counter its calls feed)
KERNELS = {
    "_kl_nats": ("divergences", "divergences.kernel_calls"),
    "_renyi_nats": ("divergences", "divergences.kernel_calls"),
    "_kl_rhs_nats": ("bounds", "bounds.rhs_calls"),
    "_renyi_rhs_nats": ("bounds", "bounds.rhs_calls"),
    "_point_distances": ("relations", "relations.centers_scanned"),
}

# counter -> the fanokit names it is read from; a counter whose names are
# not all present is reported absent rather than as a wrong zero
COUNTER_SOURCES = {
    "verify.instances": ("verify.sweep_diffusion",),
    "divergences.kernel_calls": ("divergences._kl_nats", "divergences._renyi_nats"),
    "bounds.rhs_calls": ("bounds._kl_rhs_nats", "bounds._renyi_rhs_nats"),
    "chains.enumerations": ("chains.enumerate_chain",),
    "chains.states_enumerated": ("chains.enumerate_chain",),
    "chains.trials_simulated": ("chains.simulate_chain",),
    "relations.centers_scanned": ("relations._point_distances",),
    "relations.points_evaluated": ("relations._point_distances",),
    "bounds.solve_calls": (),
    "bounds.reports": (),
    "jsonio.bytes_out": ("jsonio.dumps",),
}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _on_sweep(counts, args, kwargs, result):
    counts["verify.instances"] += result.instances


def _on_enumerate(counts, args, kwargs, result):
    exp = _arg(args, kwargs, 0, "exp")
    counts["chains.enumerations"] += 1
    counts["chains.states_enumerated"] += (
        len(exp.prior) * len(exp.channel.output_outcomes) ** exp.n_samples)


def _on_simulate(counts, args, kwargs, result):
    counts["chains.trials_simulated"] += int(_arg(args, kwargs, 1, "trials"))


def _on_dumps(counts, args, kwargs, result):
    counts["jsonio.bytes_out"] += len(result.encode("utf-8"))


def _on_bound(counts, args, kwargs, result):
    if type(result).__name__ == "BoundReport":
        counts["bounds.reports"] += 1
        if result.mode == "solve":
            counts["bounds.solve_calls"] += 1


SPAN_HOOKS = {
    "verify.sweep_diffusion": _on_sweep,
    "chains.enumerate_chain": _on_enumerate,
    "chains.simulate_chain": _on_simulate,
    "jsonio.dumps": _on_dumps,
}


class Tracer:
    """Counts, errors and self time per layer while installed."""

    def __init__(self):
        self.calls = Counter()
        self.errors = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.absent: list = []
        self._stack: list = []       # one [child seconds] cell per open span
        self._in_kernel = False
        self._patched: list = []     # (namespace, name, original)

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn, layer: str, hook):
        tracer, stack, calls, errors, self_s, counts = (
            self, self._stack, self.calls, self.errors, self.self_s, self.counts)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_kernel:          # inside a kernel: part of the kernel's time
                return fn(*args, **kwargs)
            calls[layer] += 1
            cell = [0.0]
            stack.append(cell)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                duration = perf_counter() - start
                stack.pop()
                self_s[layer] += duration - cell[0]
                if stack:
                    stack[-1][0] += duration
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result
        return wrapper

    def _kernel(self, fn, layer: str, counter: str):
        tracer, stack, errors, self_s, counts = (
            self, self._stack, self.errors, self.self_s, self.counts)
        count_points = counter == "relations.centers_scanned"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            if count_points:
                counts["relations.points_evaluated"] += len(args[1])
            outer = not tracer._in_kernel  # a nested kernel is timed by the outer one
            if outer:
                tracer._in_kernel = True
                start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                if outer:
                    duration = perf_counter() - start
                    tracer._in_kernel = False
                    self_s[layer] += duration
                    if stack:
                        stack[-1][0] += duration
        return wrapper

    # -- install / restore ------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        replacements = {}   # original function -> wrapper
        present = set()
        for layer in LAYERS:
            module = importlib.import_module("fanokit." + layer)
            for name, obj in vars(module).items():
                if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
                    continue
                kernel = KERNELS.get(name)
                if kernel is not None and kernel[0] == layer:
                    replacements[obj] = self._kernel(obj, layer, kernel[1])
                elif not name.startswith("_"):
                    hook = SPAN_HOOKS.get(layer + "." + name)
                    if hook is None and layer == "bounds":
                        hook = _on_bound
                    replacements[obj] = self._span(obj, layer, hook)
                else:
                    continue
                present.add(layer + "." + name)
        for counter, sources in COUNTER_SOURCES.items():
            if not all(s in present for s in sources):
                self.absent.append(counter)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "fanokit"
                                      or module_name.startswith("fanokit.")):
                continue
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._patched.append((namespace, name, obj))
                    namespace[name] = replacements[obj]

    def restore(self) -> None:
        while self._patched:
            namespace, name, original = self._patched.pop()
            namespace[name] = original

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ----------------------------------------------------------------

    def per_op(self, ops: int) -> dict:
        """Every per-layer metric divided by the number of ops traced;
        absent counters are left out."""
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = (self.calls[layer] / ops, "count/op")
            out[layer + ".errors"] = (self.errors[layer] / ops, "count/op")
            out[layer + ".self_s"] = (self.self_s[layer] / ops, "s/op")
        for counter in COUNTER_SOURCES:
            if counter not in self.absent:
                unit = "B/op" if counter == "jsonio.bytes_out" else "count/op"
                out[counter] = (self.counts[counter] / ops, unit)
        return out
