"""Tracing shim: spans and counters around the public functions of resistwalk.

The shim changes no program code.  `Tracer.install` replaces every public
function of the seven layer modules at every module-namespace reference to it
(so `resistwalk.walk_sim.run_walk`, `resistwalk.cli_io.run_walk` and
`resistwalk.run_walk` all become the same wrapper), wraps the public methods of
the public classes, and proxies `RngStream.generator` so that uniforms drawn
can be counted.  `Tracer.uninstall` restores the originals, so untraced
passes run the unmodified program.

A span is (name, layer, start_ns, end_ns, parent, op).  Calls that stay
inside the caller's layer open no span unless the function is in TRACKED,
which keeps hot intra-layer helpers (such as the scalar `psi_inverse` in the
Garsia integrand) cheap; their time stays in the caller's span, which belongs
to the same layer, so layer self times are unaffected.  Spans are kept in
memory and written out by `write_jsonl`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("graphs", "resistance", "exact_chain", "walk_sim", "garsia", "experiments", "cli_io")

KERNELS = ("run_walk", "max_scaled_difference_statistic", "truncated_modulus_trial", "cover_time")

# Functions that always open a span, even when called from their own layer,
# because a per-layer metric counts them.
TRACKED = {
    "graphs.generate",
    "resistance.LaplacianSolver.__init__",
    "resistance.LaplacianSolver.solve",
    "resistance.resistance_matrix",
    "exact_chain.transition_matrix",
    "garsia.gamma_functional",
    "garsia.garsia_bound_matrix",
    "garsia.garsia_integral_bound_curve",
    "garsia.ball_volume_checks",
} | {f"walk_sim.{k}" for k in KERNELS}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _kernel_steps(kernel):
    """Steps a walk kernel simulated, from its arguments, result or exception."""
    if kernel in ("run_walk", "max_scaled_difference_statistic"):
        pos = 2 if kernel == "run_walk" else 4
        return lambda a, k, out, exc: int(_arg(a, k, pos, "steps"))
    if kernel == "truncated_modulus_trial":
        return lambda a, k, out, exc: 0 if out is None else int(out.steps_run)
    # cover_time: tau_cov when covered, the cap when censored
    return lambda a, k, out, exc: int(out.tau_cov) if out is not None else int(getattr(exc, "cap", 0) or 0)


class _CountingGenerator:
    """Pass-through numpy Generator that counts the uniforms it hands out."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def random(self, size=None, *args, **kwargs):
        self._tracer.counters["walk_sim.uniforms_drawn"] += 1 if size is None else int(np.prod(size))
        return self._gen.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.clear()
        self._patches = []
        self._wrappers = {}  # id(original function) -> wrapper
        self._post = {f"walk_sim.{k}": _kernel_steps(k) for k in KERNELS}
        self._post["graphs.generate"] = self._on_generate
        self._post["garsia.ball_volume_checks"] = lambda a, k, out, exc: 0 if out is None else len(out[0])
        self._post["resistance.LaplacianSolver.__init__"] = lambda a, k, out, exc: int(not a[0].dense) if exc is None else 0

    # -- span records -------------------------------------------------------

    def clear(self):
        self.names, self.layers, self.starts, self.ends = [], [], [], []
        self.parents, self.ops, self.extra = [], [], []
        self.stack = []
        self.counters = Counter()
        self.op = -1
        self.op_generated = set()

    def set_op(self, op):
        self.op = op
        self.op_generated = set()

    def _on_generate(self, args, kwargs, out, exc):
        spec = _arg(args, kwargs, 0, "spec")
        key = (spec.family, spec.level, float(spec.weight))
        if key in self.op_generated:
            self.counters["graphs.repeat_generations"] += 1
        self.op_generated.add(key)
        return 0 if out is None else int(out.n)

    def _wrap(self, fn, layer, name):
        tracked = name in TRACKED
        post = self._post.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not tracked and stack and tracer.layers[stack[-1]] == layer:
                return fn(*args, **kwargs)
            i = len(tracer.names)
            tracer.names.append(name)
            tracer.layers.append(layer)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.ops.append(tracer.op)
            tracer.ends.append(0)
            tracer.extra.append(0)
            stack.append(i)
            tracer.starts.append(time.perf_counter_ns())
            out = exc = None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer.ends[i] = time.perf_counter_ns()
                stack.pop()
                if post is not None:
                    tracer.extra[i] = post(args, kwargs, out, exc)

        return wrapper

    # -- installation -------------------------------------------------------

    def _originals(self):
        """(layer, qualified name, owner, attribute, function) for every public
        function and public class method defined in the seven layer modules."""
        found = []
        for layer in LAYERS:
            mod = sys.modules[f"{self.package.__name__}.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    found.append((layer, f"{layer}.{name}", None, name, obj))
                elif inspect.isclass(obj):
                    for attr, meth in vars(obj).items():
                        if inspect.isfunction(meth) and (attr == "__init__" or not attr.startswith("_")):
                            found.append((layer, f"{layer}.{name}.{attr}", obj, attr, meth))
        return found

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            return
        functions = {}
        for layer, qual, owner, attr, fn in self._originals():
            if owner is not None and attr == "generator" and owner.__name__ == "RngStream":
                self._patch(owner, attr, self._counting_generator(fn))
                continue
            wrapper = self._wrappers.get(id(fn))
            if wrapper is None:
                wrapper = self._wrappers[id(fn)] = self._wrap(fn, layer, qual)
            if owner is None:
                functions[id(fn)] = wrapper
            else:
                self._patch(owner, attr, wrapper)
        prefix = self.package.__name__
        modules = [m for n, m in list(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = functions.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patch(mod, name, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _counting_generator(self, fn):
        tracer = self

        @functools.wraps(fn)
        def generator(stream):
            tracer.counters["walk_sim.streams_opened"] += 1
            return _CountingGenerator(fn(stream), tracer)

        return generator

    def counting(self, fn, counter):
        """Wrap a callable the benchmark builds itself (a Garsia profile
        piece) so that it adds the points it is evaluated at inside
        garsia_integral_bound_curve to `counter`."""
        tracer = self

        @functools.wraps(fn)
        def counted(x):
            stack = tracer.stack
            if stack and tracer.names[stack[-1]] == "garsia.garsia_integral_bound_curve":
                tracer.counters[counter] += int(np.size(x))
            return fn(x)

        return counted

    # -- derived metrics ----------------------------------------------------

    def metrics(self, wall_s):
        """Per-layer metrics of the spans recorded since the last clear()."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        self_ns = Counter()
        total = Counter()
        count = Counter()
        extra = Counter()
        entry_count = Counter()
        entry_ns = Counter()
        for i in range(n):
            name, layer, p = self.names[i], self.layers[i], self.parents[i]
            self_ns[layer] += dur[i] - child[i]
            total[name] += dur[i]
            count[name] += 1
            extra[name] += self.extra[i]
            if p < 0 or self.layers[p] != layer:
                entry_count[layer] += 1
                entry_ns[layer] += dur[i]
        c = self.counters
        s = lambda ns: ns / 1e9
        m = {}
        m["graphs.generate_calls"] = count["graphs.generate"]
        m["graphs.generate_s"] = s(total["graphs.generate"])
        m["graphs.vertices_built"] = extra["graphs.generate"]
        m["graphs.repeat_generations"] = c["graphs.repeat_generations"]
        init, solve = "resistance.LaplacianSolver.__init__", "resistance.LaplacianSolver.solve"
        m["resistance.solver_builds"] = count[init]
        m["resistance.cg_solver_builds"] = extra[init]
        m["resistance.factorize_s"] = s(total[init])
        m["resistance.pair_solves"] = count[solve]
        m["resistance.pair_solve_s"] = s(total[solve])
        m["resistance.all_pairs_calls"] = count["resistance.resistance_matrix"]
        m["resistance.all_pairs_s"] = s(total["resistance.resistance_matrix"])
        m["exact_chain.calls"] = entry_count["exact_chain"]
        m["exact_chain.s"] = s(entry_ns["exact_chain"])
        m["exact_chain.transition_builds"] = count["exact_chain.transition_matrix"]
        m["exact_chain.transition_s"] = s(total["exact_chain.transition_matrix"])
        kernels = [f"walk_sim.{k}" for k in KERNELS]
        steps = sum(extra[k] for k in kernels)
        walk_ns = sum(total[k] for k in kernels)
        m["walk_sim.trials"] = sum(count[k] for k in kernels)
        m["walk_sim.steps"] = steps
        m["walk_sim.s"] = s(walk_ns)
        m["walk_sim.ns_per_step"] = walk_ns / steps if steps else 0.0
        for k in kernels:
            m[f"{k}.ns_per_step"] = total[k] / extra[k] if extra[k] else 0.0
        m["walk_sim.streams_opened"] = c["walk_sim.streams_opened"]
        m["walk_sim.uniforms_drawn"] = c["walk_sim.uniforms_drawn"]
        m["walk_sim.uniforms_used_ratio"] = steps / c["walk_sim.uniforms_drawn"] if c["walk_sim.uniforms_drawn"] else 0.0
        m["garsia.functions"] = count["garsia.gamma_functional"]
        m["garsia.gamma_s"] = s(total["garsia.gamma_functional"])
        m["garsia.chain_s"] = s(total["garsia.garsia_bound_matrix"])
        m["garsia.integral_s"] = s(total["garsia.garsia_integral_bound_curve"])
        m["garsia.integrand_points"] = c["garsia.integrand_points"]
        m["garsia.volume_check_s"] = s(total["garsia.ball_volume_checks"])
        m["garsia.radii_checked"] = extra["garsia.ball_volume_checks"]
        m["experiments.calls"] = entry_count["experiments"]
        m["cli_io.runs"] = count["cli_io.run_command"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = s(self_ns[layer])
        covered = s(sum(self_ns.values()))
        m["trace.spans"] = n
        m["trace.self_coverage"] = covered / wall_s if wall_s > 0 else 0.0
        return m

    def write_jsonl(self, path, spans):
        """Write recorded spans (name, layer, start, end, parent, op) as JSON lines."""
        with open(path, "w") as fh:
            for rec in spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")

    def snapshot(self, pass_index):
        """Spans recorded since the last clear(), tagged with the pass."""
        return [
            {"pass": pass_index, "name": self.names[i], "layer": self.layers[i],
             "start_ns": self.starts[i], "end_ns": self.ends[i],
             "parent": self.parents[i], "op": self.ops[i]}
            for i in range(len(self.names))
        ]
