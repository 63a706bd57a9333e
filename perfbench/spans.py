"""Spans around the public callables of the luroth modules.

The benchmark's traced run loads this module into the child interpreter
after ``import luroth.cli`` and before the CLI starts.  Every public function
of each layer (its ``__all__``) and every method of ``RngStream`` is replaced
by a wrapper that records one span per call: name, start, end and the index
of the enclosing span.  The wrapper is rebound under every module-level name
that held the original function object, so the names ``luroth.cli`` and
``luroth.contfrac`` import are traced as well.  Private kernels are not
wrapped; their time counts in the span of the public caller.

Spans stay in memory and are reduced once the CLI has returned: a span's
self time is its duration minus the durations of its direct children.
Counts come from call arguments and return values only, never from inside
the program.  The reduction assumes one thread, which holds for the CLI's
default of one worker.
"""

import functools
import importlib
import inspect
import time

LAYERS = ("rng", "simulation", "extrema", "precision", "trimming",
          "contfrac", "expansion", "cli")

_WORD_METHODS = ("rng.RngStream.raw64", "rng.RngStream.uniforms",
                 "rng.RngStream.luroth_digits")
_CF_SAMPLERS = ("contfrac.mc_cf_rho", "contfrac.mc_cf_trimmed")


def _words(bound, result):
    return {"rng.words": bound.arguments["n"]}


def _mc_rows(bound, result):
    # the trajectory returns one (k, statistic) row per checkpoint; the
    # other samplers return a single McResult, which is one table row
    return {"simulation.rows": len(result) if isinstance(result, list) else 1}


def _cf(bound, result):
    samples = bound.arguments["samples"]
    return {"contfrac.digit_steps": samples * bound.arguments["k"],
            "contfrac.aborted": samples - result.samples}


def _counter_for(name):
    if name in _WORD_METHODS:
        return _words
    if name.startswith("simulation.mc_"):
        return _mc_rows
    if name in _CF_SAMPLERS:
        return _cf
    return None


class Tracer:
    """Wraps the luroth callables and reduces the spans they record."""

    def __init__(self):
        # span: [name, start, end, parent index, counts or None]
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = _counter_for(name)
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(signature.bind(*args, **kwargs), result)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every public callable and rebind it wherever it is bound."""
        modules = [importlib.import_module("luroth." + layer) for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if callable(obj) and not inspect.isclass(obj):
                    wrapped[id(obj)] = self._wrap(layer + "." + attr, obj)
        rng_stream = importlib.import_module("luroth.rng").RngStream
        for attr, obj in list(vars(rng_stream).items()):
            if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                setattr(rng_stream, attr, self._wrap("rng.RngStream." + attr, obj))
        for mod in [importlib.import_module("luroth")] + modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    def summary(self):
        """Self time per function and per layer, and the counts.

        ``simulation.words`` counts the words drawn inside a simulation span,
        at any depth, and ``simulation.rows`` the Monte Carlo rows those
        spans returned.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        in_sim = [False] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                in_sim[i] = in_sim[parent]
            if name.startswith("simulation."):
                in_sim[i] = True
        functions = {}
        layers = dict.fromkeys(LAYERS, 0.0)
        counts = dict.fromkeys(("rng.words", "rng.streams", "simulation.words",
                                "simulation.rows", "contfrac.digit_steps",
                                "contfrac.aborted"), 0)
        for i, (name, start, end, parent, extra) in enumerate(spans):
            self_s = (end - start) - child[i]
            entry = functions.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += self_s
            layers[name.split(".", 1)[0]] += self_s
            if name == "rng.RngStream.__init__":
                counts["rng.streams"] += 1
            for key, value in (extra or {}).items():
                counts[key] += value
                if key == "rng.words" and in_sim[i]:
                    counts["simulation.words"] += value
        return {"functions": functions, "layers": layers, "counts": counts,
                "spans": len(spans)}
